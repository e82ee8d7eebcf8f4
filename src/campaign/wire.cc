#include "campaign/wire.hh"

namespace darco::campaign::wire
{

std::string
encode(const std::string &type,
       const std::function<void(snapshot::Serializer &)> &body)
{
    std::ostringstream os;
    {
        snapshot::Serializer s(os);
        s.beginSection(type);
        if (body)
            body(s);
        s.endSection();
        s.finish();
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

namespace
{

void
writeByteVec(snapshot::Serializer &s, const std::vector<u8> &v)
{
    s.w64(v.size());
    s.wbytes(v.data(), v.size());
}

std::vector<u8>
readByteVec(snapshot::Deserializer &d)
{
    u64 n = d.r64();
    std::vector<u8> v(n);
    d.rbytes(v.data(), n);
    return v;
}

void
writeStrMap(snapshot::Serializer &s,
            const std::map<std::string, std::string> &m)
{
    s.w64(m.size());
    for (const auto &[k, v] : m) {
        s.wstr(k);
        s.wstr(v);
    }
}

std::map<std::string, std::string>
readStrMap(snapshot::Deserializer &d)
{
    std::map<std::string, std::string> m;
    u64 n = d.r64();
    for (u64 i = 0; i < n; ++i) {
        std::string k = d.rstr();
        m[k] = d.rstr();
    }
    return m;
}

void
writePlan(snapshot::Serializer &s, const sampling::SimPointResult &p)
{
    s.w64(p.interval);
    s.w64(p.totalInsts);
    s.w32(p.k);
    s.wf64(p.bic);
    s.w64(p.bicSweep.size());
    for (const auto &[k, bic] : p.bicSweep) {
        s.w32(k);
        s.wf64(bic);
    }
    s.w64(p.points.size());
    for (const sampling::SimPoint &sp : p.points) {
        s.w32(sp.intervalIndex);
        s.w32(sp.cluster);
        s.wf64(sp.weight);
        s.w64(sp.startInst);
    }
    s.w64(p.assignment.size());
    for (u32 c : p.assignment)
        s.w32(c);
}

sampling::SimPointResult
readPlan(snapshot::Deserializer &d)
{
    sampling::SimPointResult p;
    p.interval = d.r64();
    p.totalInsts = d.r64();
    p.k = d.r32();
    p.bic = d.rf64();
    for (u64 i = 0, n = d.r64(); i < n; ++i) {
        u32 k = d.r32();
        p.bicSweep.emplace_back(k, d.rf64());
    }
    for (u64 i = 0, n = d.r64(); i < n; ++i) {
        sampling::SimPoint sp;
        sp.intervalIndex = d.r32();
        sp.cluster = d.r32();
        sp.weight = d.rf64();
        sp.startInst = d.r64();
        p.points.push_back(sp);
    }
    for (u64 i = 0, n = d.r64(); i < n; ++i)
        p.assignment.push_back(d.r32());
    return p;
}

} // namespace

void
writeProgram(snapshot::Serializer &s, const guest::Program &p)
{
    s.wstr(p.name);
    s.w32(p.entry);
    writeByteVec(s, p.code);
    writeByteVec(s, p.data);
}

guest::Program
readProgram(snapshot::Deserializer &d)
{
    guest::Program p;
    p.name = d.rstr();
    p.entry = d.r32();
    p.code = readByteVec(d);
    p.data = readByteVec(d);
    return p;
}

void
writeConfig(snapshot::Serializer &s, const Config &cfg)
{
    writeStrMap(s, cfg.entries());
}

Config
readConfig(snapshot::Deserializer &d)
{
    Config cfg;
    for (const auto &[k, v] : readStrMap(d))
        cfg.set(k, v);
    return cfg;
}

void
writeJob(snapshot::Serializer &s, const Job &job)
{
    s.wstr(job.workload);
    s.wstr(job.configName);
    writeProgram(s, job.program);
    writeConfig(s, job.config);
    s.w64(job.maxInsts);
    s.w64(job.skip);
}

Job
readJob(snapshot::Deserializer &d)
{
    Job job;
    job.workload = d.rstr();
    job.configName = d.rstr();
    job.program = readProgram(d);
    job.config = readConfig(d);
    job.maxInsts = d.r64();
    job.skip = d.r64();
    return job;
}

void
writeResult(snapshot::Serializer &s, const JobResult &r)
{
    s.wstr(r.workload);
    s.wstr(r.configName);
    s.wbool(r.ok);
    s.wstr(r.error);
    s.w32(r.exitCode);
    s.w64(r.insts);
    s.w64(r.bbs);
    s.wbool(r.finished);
    s.wbool(r.checkpointHit);
    s.wbool(r.checkpointStored);
    s.wf64(r.wallMs);
    s.wstr(r.workerId);
    s.wf64(r.cycles);
    s.wf64(r.ipc);
    s.wf64(r.energyJ);
    s.wf64(r.avgPowerW);
    s.wstr(r.sampleMode);
    s.w64(r.sampledInsts);
    writePlan(s, r.plan);
    s.w64(r.proved);
    s.w64(r.refuted);
    s.w64(r.unknown);
    s.w64(r.stats.size());
    for (const auto &[k, v] : r.stats) {
        s.wstr(k);
        s.w64(v);
    }
    writeStrMap(s, r.effectiveConfig);
}

JobResult
readResult(snapshot::Deserializer &d)
{
    JobResult r;
    r.workload = d.rstr();
    r.configName = d.rstr();
    r.ok = d.rbool();
    r.error = d.rstr();
    r.exitCode = d.r32();
    r.insts = d.r64();
    r.bbs = d.r64();
    r.finished = d.rbool();
    r.checkpointHit = d.rbool();
    r.checkpointStored = d.rbool();
    r.wallMs = d.rf64();
    r.workerId = d.rstr();
    r.cycles = d.rf64();
    r.ipc = d.rf64();
    r.energyJ = d.rf64();
    r.avgPowerW = d.rf64();
    r.sampleMode = d.rstr();
    r.sampledInsts = d.r64();
    r.plan = readPlan(d);
    r.proved = d.r64();
    r.refuted = d.r64();
    r.unknown = d.r64();
    u64 nstats = d.r64();
    for (u64 i = 0; i < nstats; ++i) {
        std::string k = d.rstr();
        r.stats[k] = d.r64();
    }
    r.effectiveConfig = readStrMap(d);
    return r;
}

void
writeRunOptions(snapshot::Serializer &s, const RunOptions &o)
{
    s.wbool(o.timing);
    s.w8(o.sampleMode == SampleMode::SimPoint ? 1 : 0);
    s.w64(o.simpoint.interval);
    s.w32(o.simpoint.maxK);
    s.w64(o.simpoint.seed);
    s.w64(o.sampleWarmup);
}

void
readRunOptions(snapshot::Deserializer &d, RunOptions &o)
{
    o.timing = d.rbool();
    o.sampleMode =
        d.r8() ? SampleMode::SimPoint : SampleMode::Full;
    o.simpoint.interval = d.r64();
    o.simpoint.maxK = d.r32();
    o.simpoint.seed = d.r64();
    o.sampleWarmup = d.r64();
}

} // namespace darco::campaign::wire
