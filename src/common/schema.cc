#include "common/schema.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"

namespace darco::conf
{

// ---------------------------------------------------------------------
// Rendering & parsing helpers
// ---------------------------------------------------------------------

const char *
typeName(ParamType t)
{
    switch (t) {
      case ParamType::Bool: return "bool";
      case ParamType::Uint: return "uint";
      case ParamType::Float: return "float";
      case ParamType::String: return "string";
      case ParamType::Enum: return "enum";
      default: return "?";
    }
}

bool
parseU64(const std::string &s, u64 &out)
{
    // strtoull skips leading whitespace and then silently negates a
    // signed value (" -5" wraps to 2^64-5): reject '-' anywhere.
    if (s.empty() || s.find('-') != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    u64 v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

namespace
{

/**
 * Canonical float rendering: the shortest of %.15g/%.16g/%.17g that
 * round-trips to the same double. Keeps common values short
 * ("0.85"), but never collapses two distinct doubles onto one string
 * — the checkpoint exec-relevant comparison and the effective_config
 * report both rely on the rendering being injective.
 */
std::string
fmtFloat(double v)
{
    char buf[64];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

bool
parseF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        return false;
    out = v;
    return true;
}

/** -1 unparsable, else 0/1. */
int
parseBool(const std::string &v)
{
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return 1;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return 0;
    return -1;
}

/** Canonical rendering of a valid value for `spec` (identity else). */
std::string
canonicalValue(const ParamSpec &spec, const std::string &value)
{
    switch (spec.type) {
      case ParamType::Bool: {
        int b = parseBool(value);
        return b < 0 ? value : (b ? "true" : "false");
      }
      case ParamType::Uint: {
        u64 v = 0;
        return parseU64(value, v) ? std::to_string(v) : value;
      }
      case ParamType::Float: {
        double v = 0;
        return parseF64(value, v) ? fmtFloat(v) : value;
      }
      default: return value;
    }
}

/** Classic Levenshtein edit distance (keys are short). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub = prev[j - 1] + (a[i - 1] != b[j - 1]);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

// ---------------------------------------------------------------------
// ParamSpec
// ---------------------------------------------------------------------

ParamSpec &
ParamSpec::cosmetic()
{
    relevantToExecution = false;
    return *this;
}

namespace
{

/** A power of two exists in [lo, hi] and shifting stays defined. */
bool
pow2FuzzRangeOk(u64 lo, u64 hi)
{
    if (hi >= (1ull << 63))
        return false; // exponent search would shift past 63 (UB)
    for (u64 p = 1; p <= hi; p <<= 1)
        if (p >= lo)
            return true;
    return false;
}

} // namespace

ParamSpec &
ParamSpec::pow2()
{
    darco_assert(type == ParamType::Uint, "pow2() on non-uint ", key);
    darco_assert(defUint != 0 && (defUint & (defUint - 1)) == 0,
                 "pow2 parameter with non-pow2 default: ", key);
    darco_assert(!fuzzable || pow2FuzzRangeOk(fuzzMinUint, fuzzMaxUint),
                 "pow2 fuzz range holds no power of two: ", key);
    requirePow2 = true;
    return *this;
}

ParamSpec &
ParamSpec::fuzz(u64 lo, u64 hi)
{
    darco_assert(type == ParamType::Uint, "fuzz(u64) on non-uint ", key);
    darco_assert(lo >= minUint && hi <= maxUint && lo <= hi,
                 "fuzz range outside valid range for ", key);
    darco_assert(!requirePow2 || pow2FuzzRangeOk(lo, hi),
                 "pow2 fuzz range holds no power of two: ", key);
    fuzzable = true;
    fuzzMinUint = lo;
    fuzzMaxUint = hi;
    return *this;
}

ParamSpec &
ParamSpec::fuzz(double lo, double hi)
{
    darco_assert(type == ParamType::Float, "fuzz(double) on non-float ",
                 key);
    darco_assert(lo >= minFloat && hi <= maxFloat && lo <= hi,
                 "fuzz range outside valid range for ", key);
    fuzzable = true;
    fuzzMinFloat = lo;
    fuzzMaxFloat = hi;
    return *this;
}

ParamSpec &
ParamSpec::fuzzToggle()
{
    darco_assert(type == ParamType::Bool || type == ParamType::Enum,
                 "fuzzToggle() on non-bool/enum ", key);
    fuzzable = true;
    return *this;
}

std::string
ParamSpec::defaultString() const
{
    switch (type) {
      case ParamType::Bool: return defBool ? "true" : "false";
      case ParamType::Uint: return std::to_string(defUint);
      case ParamType::Float: return fmtFloat(defFloat);
      case ParamType::String:
      case ParamType::Enum: return defString;
      default: return "";
    }
}

std::string
ParamSpec::rangeString() const
{
    std::ostringstream os;
    switch (type) {
      case ParamType::Uint:
        os << '[' << minUint << ", ";
        if (maxUint == ~0ull)
            os << "2^64-1";
        else
            os << maxUint;
        os << ']';
        return os.str();
      case ParamType::Float:
        os << '[' << fmtFloat(minFloat) << ", " << fmtFloat(maxFloat)
           << ']';
        return os.str();
      case ParamType::Enum: {
        os << '{';
        for (std::size_t i = 0; i < domain.size(); ++i)
            os << (i ? ", " : "") << domain[i];
        os << '}';
        return os.str();
      }
      default: return "-";
    }
}

// ---------------------------------------------------------------------
// Declaration helpers
// ---------------------------------------------------------------------

ParamSpec &
ConfigSchema::declare(const std::string &key, ParamType type,
                      const std::string &help)
{
    darco_assert(params_.count(key) == 0,
                 "config parameter declared twice: ", key);
    ParamSpec &p = params_[key];
    p.key = key;
    p.type = type;
    p.help = help;
    return p;
}

ParamSpec &
ConfigSchema::declBool(const std::string &key, bool def,
                       const std::string &help)
{
    ParamSpec &p = declare(key, ParamType::Bool, help);
    p.defBool = def;
    return p;
}

ParamSpec &
ConfigSchema::declUint(const std::string &key, u64 def, u64 min,
                       u64 max, const std::string &help)
{
    darco_assert(min <= def && def <= max,
                 "default outside declared range for ", key);
    ParamSpec &p = declare(key, ParamType::Uint, help);
    p.defUint = def;
    p.minUint = min;
    p.maxUint = max;
    return p;
}

ParamSpec &
ConfigSchema::declFloat(const std::string &key, double def, double min,
                        double max, const std::string &help)
{
    darco_assert(min <= def && def <= max,
                 "default outside declared range for ", key);
    ParamSpec &p = declare(key, ParamType::Float, help);
    p.defFloat = def;
    p.minFloat = min;
    p.maxFloat = max;
    return p;
}

ParamSpec &
ConfigSchema::declString(const std::string &key, const std::string &def,
                         const std::string &help)
{
    ParamSpec &p = declare(key, ParamType::String, help);
    p.defString = def;
    return p;
}

ParamSpec &
ConfigSchema::declEnum(const std::string &key, const std::string &def,
                       const std::vector<std::string> &domain,
                       const std::string &help)
{
    darco_assert(std::count(domain.begin(), domain.end(), def) == 1,
                 "enum default outside domain for ", key);
    ParamSpec &p = declare(key, ParamType::Enum, help);
    p.defString = def;
    p.domain = domain;
    return p;
}

// ---------------------------------------------------------------------
// The one place every DARCO parameter is declared
// ---------------------------------------------------------------------

ConfigSchema::ConfigSchema()
{
    // --- shared -------------------------------------------------------
    declUint("seed", 1, 0, ~0ull,
             "RNG seed of the guest OS model in the reference "
             "component (RNG/time streams) and of the multi-core "
             "interleaver");
    declUint("cores", 1, 1, 8,
             "guest hardware contexts sharing one TOL (translation "
             "registry, code cache, eviction clock, async translator); "
             "core i runs its own instance of the workload, its "
             "reference component seeded seed+i, interleaved at "
             "region/interpreter-step boundaries");

    // --- controller / synchronization (measurement-side toggles) ------
    declBool("sync.validate_syscalls", true,
             "compare architectural state against the reference "
             "component at every syscall")
        .cosmetic();
    declBool("sync.validate_end", true,
             "full state comparison at end of application")
        .cosmetic();

    // --- TOL: promotion thresholds & region limits ---------------------
    declUint("tol.bb_threshold", 10, 1, 1u << 20,
             "interpreter executions of a BB before promotion to BBM "
             "(basic-block translation)")
        .fuzz(u64(1), u64(64));
    declUint("tol.sb_threshold", 50, 1, 1u << 20,
             "BB executions before superblock (SBM) promotion")
        .fuzz(u64(2), u64(128));
    declFloat("tol.bias_threshold", 0.85, 0.0, 1.0,
              "edge bias required to extend a superblock through a "
              "conditional branch")
        .fuzz(0.5, 1.0);
    declFloat("tol.cum_threshold", 0.40, 0.0, 1.0,
              "minimum cumulative path probability for superblock "
              "growth")
        .fuzz(0.1, 0.9);
    declUint("tol.min_edge_total", 16, 1, 1u << 20,
             "edge-profile samples required before bias is trusted")
        .fuzz(u64(1), u64(64));
    declUint("tol.max_sb_insts", 200, 1, 100'000,
             "superblock guest-instruction budget")
        .fuzz(u64(32), u64(200));
    declUint("tol.max_sb_bbs", 16, 1, 1024,
             "superblock basic-block budget")
        .fuzz(u64(2), u64(16));
    declUint("tol.max_bb_insts", 128, 1, 100'000,
             "basic-block translation instruction budget")
        .fuzz(u64(16), u64(128));
    declUint("tol.max_assert_fails", 6, 0, 1u << 20,
             "speculation-assert failures tolerated before a "
             "superblock is recreated without asserts")
        .fuzz(u64(0), u64(8));
    declUint("tol.max_alias_fails", 6, 0, 1u << 20,
             "alias-speculation failures tolerated before recreation "
             "without memory speculation")
        .fuzz(u64(0), u64(8));

    // --- TOL: optimization toggles -------------------------------------
    declBool("tol.unroll", true, "unroll small hot loops in superblocks")
        .fuzzToggle();
    declUint("tol.unroll_factor", 4, 1, 64, "loop unroll factor")
        .fuzz(u64(1), u64(8));
    declBool("tol.asserts", true,
             "emit speculation asserts (conditional-exit promotion)")
        .fuzzToggle();
    declBool("tol.enable_bbm", true,
             "enable the basic-block translation mode (BBM)")
        .fuzzToggle();
    declBool("tol.enable_sbm", true,
             "enable the superblock translation mode (SBM)")
        .fuzzToggle();
    declBool("tol.chaining", true,
             "chain translated regions (direct-jump linking)")
        .fuzzToggle();
    declBool("tol.spec_mem", true,
             "speculative load/store reordering with alias guards")
        .fuzzToggle();
    declBool("tol.sched", true, "instruction scheduling pass")
        .fuzzToggle();
    declBool("tol.opt", true,
             "classic optimizations (value forwarding, dead-code "
             "elimination)")
        .fuzzToggle();
    declBool("tol.fuse_flags", true,
             "fuse flag-producing/consuming instruction pairs in the "
             "frontend")
        .fuzzToggle();
    declUint("tol.host_chunk", 1u << 20, 1, ~0ull,
             "host-emulator slice length (host insts) between TOL "
             "scheduling points")
        .fuzz(u64(512), u64(65'536));
    declUint("tol.bbv_interval", 0, 0, ~0ull,
             "basic-block-vector profiling interval in guest insts "
             "(0 disables BBV collection)")
        .fuzz(u64(512), u64(8192));
    declUint("tol.interleave_seed", 0, 0, ~0ull,
             "seed of the multi-core dispatch interleaver (0 derives "
             "it from `seed`); with cores > 1 the interleaver draws "
             "one xorshift64 step per dispatch-loop iteration to pick "
             "the next runnable core, so the schedule is part of the "
             "simulated model and independent of host threading");

    // --- TOL: asynchronous translation pipeline ------------------------
    declUint("tol.async.threads", 0, 0, 64,
             "background translator worker threads (0 = translate "
             "synchronously on the guest critical path); simulated "
             "results are identical for any value >= 1")
        .fuzz(u64(1), u64(4));
    declUint("tol.async.vthreads", 1, 1, 64,
             "modeled concurrent translator threads: divides the "
             "virtual translation-completion latency and overlaps the "
             "concurrent-translator cost category in the timing core")
        .fuzz(u64(1), u64(4));
    declUint("tol.async.queue", 16, 1, 4096,
             "bounded translation-request queue depth; a full queue "
             "forces a synchronous fallback translation")
        .fuzz(u64(1), u64(32));
    declUint("tol.async.rate", 8, 1, 1u << 20,
             "modeled translator throughput in host instructions per "
             "retired guest instruction, per modeled thread")
        .fuzz(u64(2), u64(16));

    // --- code cache ----------------------------------------------------
    declUint("cc.capacity_words", 1u << 22, 256, 1u << 28,
             "code-cache capacity in host words")
        .fuzz(u64(2048), u64(32'768));
    declEnum("cc.policy", "evict", {"evict", "flush"},
             "code-cache replacement: region-granular second-chance "
             "eviction, or classic full flush")
        .fuzzToggle();

    // --- TOL cost model (software-overhead accounting) -----------------
    declUint("cost.interp_inst", 20, 0, 1'000'000'000,
             "cost units to interpret one guest instruction");
    declUint("cost.interp_dispatch", 9, 0, 1'000'000'000,
             "cost units per interpreter dispatch");
    declUint("cost.bb_fixed", 180, 0, 1'000'000'000,
             "fixed cost of translating a basic block");
    declUint("cost.bb_guest_inst", 70, 0, 1'000'000'000,
             "per-guest-instruction cost of BB translation");
    declUint("cost.sb_fixed", 700, 0, 1'000'000'000,
             "fixed cost of building a superblock");
    declUint("cost.sb_work_unit", 9, 0, 1'000'000'000,
             "per-work-unit cost of superblock optimization");
    declUint("cost.prologue", 14, 0, 1'000'000'000,
             "cost of a translation prologue execution");
    declUint("cost.chain", 30, 0, 1'000'000'000,
             "cost of patching one chain link");
    declUint("cost.lookup", 15, 0, 1'000'000'000,
             "cost of a code-cache lookup");
    declUint("cost.dispatch", 9, 0, 1'000'000'000,
             "cost of dispatching into translated code");
    declUint("cost.init", 40'000, 0, 1'000'000'000,
             "one-time TOL initialization cost");
    declUint("cost.word_emit", 4, 0, 1'000'000'000,
             "cost of emitting one host code word");
    declUint("cost.evict", 150, 0, 1'000'000'000,
             "cost of evicting one code-cache region");
    declUint("cost.unchain", 24, 0, 1'000'000'000,
             "cost of unchaining one incoming link");

    // --- host emulator -------------------------------------------------
    declUint("hemu.ibtc_entries", 512, 1, 1u << 20,
             "indirect-branch translation cache entries")
        .pow2()
        .fuzz(u64(8), u64(4096));
    declUint("hemu.ibtc_hit_cost", 6, 0, 1'000'000,
             "host-cycle cost charged per IBTC hit")
        .fuzz(u64(1), u64(16));

    // --- debug / fault injection ---------------------------------------
    declBool("debug.flip_cond_exits", false,
             "fault injection: invert conditional exits in generated "
             "superblocks (differential-fuzzer self-test)");
    declBool("debug.drop_guard", false,
             "fault injection: silently omit speculation-guard asserts "
             "from generated code (verifier self-test)");

    // --- translation verification --------------------------------------
    declBool("tol.verify", false,
             "prove each translation symbolically equivalent to its "
             "guest path as it is published")
        .cosmetic();

    // --- observability (measurement only) ------------------------------
    declString("obs.trace.path", "",
               "write a Chrome trace-event JSON timeline (Perfetto-"
               "loadable) to this path; empty disables tracing")
        .cosmetic();
    declString("obs.metrics.path", "",
               "write a JSONL interval-metrics stream (per-interval "
               "mode distribution and overhead breakdown) to this "
               "path; empty disables metrics")
        .cosmetic();
    declUint("obs.metrics.interval", 100'000, 1, ~0ull,
             "interval-metrics row length in retired guest "
             "instructions")
        .cosmetic();

    // --- timing model (measurement only) -------------------------------
    declUint("core.issue_width", 2, 1, 16, "in-order issue width")
        .cosmetic();
    declUint("core.fetch_width", 4, 1, 32,
             "instructions fetched per cycle")
        .cosmetic();
    declUint("core.iq_size", 16, 1, 512, "instruction-queue entries")
        .cosmetic();
    declUint("core.frontend_depth", 4, 1, 64,
             "frontend pipeline depth (cycles)")
        .cosmetic();
    declUint("core.lat_alu", 1, 1, 1000, "ALU latency").cosmetic();
    declUint("core.lat_mul", 3, 1, 1000, "multiply latency").cosmetic();
    declUint("core.lat_div", 12, 1, 1000, "divide latency").cosmetic();
    declUint("core.lat_fp", 4, 1, 1000, "FP latency").cosmetic();
    declUint("core.lat_fpdiv", 12, 1, 1000, "FP divide latency")
        .cosmetic();
    declUint("core.lat_branch", 1, 1, 1000, "branch resolve latency")
        .cosmetic();
    declUint("core.num_alu", 2, 1, 64, "ALU ports").cosmetic();
    declUint("core.num_complex", 1, 1, 64, "complex (mul/div) ports")
        .cosmetic();
    declUint("core.num_fp", 1, 1, 64, "FP ports").cosmetic();
    declUint("core.num_mem_ports", 1, 1, 64, "memory ports").cosmetic();
    declUint("cache.line", 64, 8, 4096, "cache line size in bytes")
        .pow2()
        .cosmetic();
    declUint("l1i.size", 32'768, 1024, 1u << 30,
             "L1 instruction cache size in bytes")
        .pow2()
        .cosmetic();
    declUint("l1i.assoc", 4, 1, 64, "L1I associativity")
        .pow2()
        .cosmetic();
    declUint("l1i.lat", 1, 0, 10'000, "L1I hit latency").cosmetic();
    declUint("l1d.size", 32'768, 1024, 1u << 30,
             "L1 data cache size in bytes")
        .pow2()
        .cosmetic();
    declUint("l1d.assoc", 4, 1, 64, "L1D associativity")
        .pow2()
        .cosmetic();
    declUint("l1d.lat", 2, 0, 10'000, "L1D hit latency").cosmetic();
    declUint("l2.size", 262'144, 4096, 1u << 30,
             "unified L2 size in bytes")
        .pow2()
        .cosmetic();
    declUint("l2.assoc", 8, 1, 64, "L2 associativity")
        .pow2()
        .cosmetic();
    declUint("l2.lat", 12, 0, 10'000, "L2 hit latency").cosmetic();
    declUint("mem.lat", 120, 0, 100'000, "DRAM access latency")
        .cosmetic();
    declUint("tlb.l1_entries", 32, 1, 1u << 20, "L1 TLB entries")
        .cosmetic();
    declUint("tlb.l2_entries", 256, 1, 1u << 20, "L2 TLB entries")
        .cosmetic();
    declUint("tlb.l2_lat", 4, 0, 10'000, "L2 TLB hit latency")
        .cosmetic();
    declUint("tlb.walk_lat", 40, 0, 100'000, "page-walk latency")
        .cosmetic();
    declUint("bpred.entries", 4096, 1, 1u << 24,
             "branch-predictor table entries")
        .pow2()
        .cosmetic();
    declUint("bpred.history", 8, 1, 32, "global history bits")
        .cosmetic();
    declUint("btb.entries", 1024, 1, 1u << 24,
             "branch-target-buffer entries")
        .pow2()
        .cosmetic();
    declUint("prefetch.entries", 64, 1, 1u << 20,
             "stride-prefetcher table entries")
        .pow2()
        .cosmetic();
    declUint("prefetch.degree", 2, 1, 64, "prefetch degree").cosmetic();
    declBool("prefetch.enable", true, "enable the stride prefetcher")
        .cosmetic();

    // --- power model (measurement only) --------------------------------
    declFloat("power.e_frontend", 0.022, 0.0, 1000.0,
              "frontend energy per instruction, nJ")
        .cosmetic();
    declFloat("power.e_issue", 0.014, 0.0, 1000.0,
              "issue energy per instruction, nJ")
        .cosmetic();
    declFloat("power.e_alu", 0.028, 0.0, 1000.0, "ALU op energy, nJ")
        .cosmetic();
    declFloat("power.e_mul", 0.10, 0.0, 1000.0,
              "multiply op energy, nJ")
        .cosmetic();
    declFloat("power.e_div", 0.24, 0.0, 1000.0, "divide op energy, nJ")
        .cosmetic();
    declFloat("power.e_fp", 0.12, 0.0, 1000.0, "FP op energy, nJ")
        .cosmetic();
    declFloat("power.e_mem_port", 0.02, 0.0, 1000.0,
              "memory-port access energy, nJ")
        .cosmetic();
    declFloat("power.e_l1", 0.075, 0.0, 1000.0,
              "L1 access energy, nJ")
        .cosmetic();
    declFloat("power.e_l2", 0.34, 0.0, 1000.0, "L2 access energy, nJ")
        .cosmetic();
    declFloat("power.e_dram", 7.5, 0.0, 1000.0,
              "DRAM access energy, nJ")
        .cosmetic();
    declFloat("power.e_tlb", 0.004, 0.0, 1000.0,
              "TLB access energy, nJ")
        .cosmetic();
    declFloat("power.e_bpred", 0.0035, 0.0, 1000.0,
              "branch-predictor access energy, nJ")
        .cosmetic();
    declFloat("power.e_prefetch", 0.075, 0.0, 1000.0,
              "prefetcher access energy, nJ")
        .cosmetic();
    declFloat("power.leakage_w", 0.25, 0.0, 1000.0,
              "static leakage power, W")
        .cosmetic();
    declFloat("power.freq_ghz", 2.0, 0.1, 100.0,
              "core clock frequency, GHz")
        .cosmetic();
}

// ---------------------------------------------------------------------
// Lookup & suggestion
// ---------------------------------------------------------------------

const ParamSpec *
ConfigSchema::find(const std::string &key) const
{
    auto it = params_.find(key);
    return it != params_.end() ? &it->second : nullptr;
}

const ParamSpec &
ConfigSchema::get(const std::string &key) const
{
    const ParamSpec *p = find(key);
    if (!p)
        panic("component read undeclared config key '", key,
              "' — declare it in ConfigSchema (src/common/schema.cc)");
    return *p;
}

std::vector<const ParamSpec *>
ConfigSchema::params() const
{
    std::vector<const ParamSpec *> out;
    out.reserve(params_.size());
    for (const auto &[key, spec] : params_)
        out.push_back(&spec);
    return out; // std::map iteration is already key-sorted
}

std::string
ConfigSchema::suggest(const std::string &key) const
{
    std::string best;
    std::size_t bestDist = ~std::size_t(0);
    for (const auto &[cand, spec] : params_) {
        std::size_t d = editDistance(key, cand);
        if (d < bestDist) { // keys iterate sorted: ties keep the first
            bestDist = d;
            best = cand;
        }
    }
    // Only suggest a plausible typo, not an arbitrary nearest key.
    std::size_t limit = std::max<std::size_t>(2, key.size() / 4);
    return bestDist <= limit ? best : "";
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

std::string
ConfigSchema::checkValue(const ParamSpec &spec,
                         const std::string &value) const
{
    std::ostringstream os;
    switch (spec.type) {
      case ParamType::Bool: {
        if (parseBool(value) < 0) {
            os << "config key '" << spec.key << "' has non-boolean "
               << "value '" << value << "'";
            return os.str();
        }
        return "";
      }
      case ParamType::Uint: {
        u64 v = 0;
        if (!parseU64(value, v)) {
            os << "config key '" << spec.key
               << "' has a malformed unsigned value '" << value << "'";
            return os.str();
        }
        if (v < spec.minUint || v > spec.maxUint) {
            os << "config key '" << spec.key << "' value " << v
               << " outside valid range " << spec.rangeString();
            return os.str();
        }
        if (spec.requirePow2 && (v == 0 || (v & (v - 1)) != 0)) {
            os << "config key '" << spec.key << "' value " << v
               << " must be a power of two";
            return os.str();
        }
        return "";
      }
      case ParamType::Float: {
        double v = 0;
        if (!parseF64(value, v)) {
            os << "config key '" << spec.key
               << "' has a malformed float value '" << value << "'";
            return os.str();
        }
        // !(v >= min && v <= max) also rejects NaN, which would
        // slip through naive < / > comparisons.
        if (!(v >= spec.minFloat && v <= spec.maxFloat)) {
            os << "config key '" << spec.key << "' value " << value
               << " outside valid range " << spec.rangeString();
            return os.str();
        }
        return "";
      }
      case ParamType::Enum: {
        if (std::count(spec.domain.begin(), spec.domain.end(),
                       value) == 0) {
            os << "config key '" << spec.key << "' value '" << value
               << "' not in " << spec.rangeString();
            return os.str();
        }
        return "";
      }
      case ParamType::String:
      default:
        return "";
    }
}

std::vector<std::string>
ConfigSchema::validationErrors(const Config &cfg) const
{
    std::vector<std::string> errs;
    for (const auto &[key, value] : cfg.entries()) {
        const ParamSpec *spec = find(key);
        if (!spec) {
            std::string msg = "unknown config key '" + key + "'";
            std::string near = suggest(key);
            if (!near.empty())
                msg += " (did you mean '" + near + "'?)";
            errs.push_back(std::move(msg));
            continue;
        }
        std::string bad = checkValue(*spec, value);
        if (!bad.empty())
            errs.push_back(std::move(bad));
    }
    return errs;
}

void
ConfigSchema::validate(const Config &cfg,
                       const std::string &context) const
{
    std::vector<std::string> errs = validationErrors(cfg);
    if (errs.empty())
        return;
    std::ostringstream os;
    if (!context.empty())
        os << context << ": ";
    os << "invalid configuration (" << errs.size() << " problem"
       << (errs.size() == 1 ? "" : "s") << "):";
    for (const std::string &e : errs)
        os << "\n  " << e;
    fatal(os.str());
}

// ---------------------------------------------------------------------
// Normalization & effective config
// ---------------------------------------------------------------------

Config
ConfigSchema::normalize(const Config &cfg) const
{
    Config out;
    for (const auto &[key, value] : cfg.entries()) {
        const ParamSpec *spec = find(key);
        // Unknown keys are carried for diagnostics.
        out.set(key, spec ? canonicalValue(*spec, value) : value);
    }
    return out;
}

std::map<std::string, std::string>
ConfigSchema::effective(const Config &cfg) const
{
    Config norm = normalize(cfg);
    std::map<std::string, std::string> out;
    for (const auto &[key, spec] : params_) {
        out[key] = norm.has(key) ? norm.getString(key)
                                 : spec.defaultString();
    }
    return out;
}

std::map<std::string, std::string>
ConfigSchema::executionRelevant(const Config &cfg) const
{
    std::map<std::string, std::string> out;
    for (auto &[key, value] : effective(cfg)) {
        if (params_.at(key).relevantToExecution)
            out[key] = value;
    }
    return out;
}

// ---------------------------------------------------------------------
// Generated reference
// ---------------------------------------------------------------------

std::string
ConfigSchema::referenceMarkdown() const
{
    std::ostringstream os;
    os << "# DARCO configuration reference\n"
       << "\n"
       << "Generated from the parameter schema "
          "(`src/common/schema.cc`) by `--list-config`; do not edit "
          "by hand — CI diffs this file against the generated "
          "output.\n"
       << "\n"
       << "`exec` marks *execution-relevant* parameters: they change "
          "what the simulated machine does, and checkpoint restore "
          "requires them to match the saving run exactly. Parameters "
          "marked `-` only affect measurement (timing/power models) "
          "or validation, and may differ freely across a "
          "checkpoint.\n"
       << "\n"
       << "| Key | Type | Default | Range | Exec | Help |\n"
       << "|---|---|---|---|---|---|\n";
    for (const ParamSpec *p : params()) {
        os << "| `" << p->key << "` | " << typeName(p->type) << " | `"
           << p->defaultString() << "` | " << p->rangeString() << " | "
           << (p->relevantToExecution ? "exec" : "-") << " | "
           << p->help << " |\n";
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Random valid configs (darco_fuzz --rand-config)
// ---------------------------------------------------------------------

std::vector<std::string>
ConfigSchema::randomOverrides(u64 seed) const
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xdeadbeefull);
    std::vector<std::string> out;
    for (const ParamSpec *p : params()) {
        if (!p->fuzzable || !rng.chance(0.5))
            continue;
        std::string v;
        switch (p->type) {
          case ParamType::Bool:
            v = (rng.next() & 1) ? "true" : "false";
            break;
          case ParamType::Uint:
            if (p->requirePow2) {
                // Sample an exponent so every draw is a power of two.
                u64 lo = 0, hi = 0;
                while ((1ull << lo) < p->fuzzMinUint)
                    ++lo;
                hi = lo;
                while ((1ull << (hi + 1)) <= p->fuzzMaxUint)
                    ++hi;
                v = std::to_string(1ull << rng.range(lo, hi));
            } else {
                v = std::to_string(rng.range(p->fuzzMinUint,
                                             p->fuzzMaxUint));
            }
            break;
          case ParamType::Float:
            v = fmtFloat(p->fuzzMinFloat +
                         rng.uniform() *
                             (p->fuzzMaxFloat - p->fuzzMinFloat));
            break;
          case ParamType::Enum:
            v = p->domain[rng.range(0, p->domain.size() - 1)];
            break;
          default:
            continue;
        }
        out.push_back(p->key + "=" + v);
    }
    return out;
}

// ---------------------------------------------------------------------
// Singleton + typed accessors
// ---------------------------------------------------------------------

const ConfigSchema &
schema()
{
    static const ConfigSchema s;
    return s;
}

} // namespace darco::conf

namespace darco
{

// Defined here, not in config.cc: the transport layer stays ignorant
// of the schema; only the schema layer knows both sides.
void
Config::validate(const conf::ConfigSchema &schema,
                 const std::string &context) const
{
    schema.validate(*this, context);
}

} // namespace darco

namespace darco::conf
{

namespace
{

/**
 * The explicitly-set value for `spec` in `cfg`, validated against the
 * schema; nullptr when the parameter is unset and the default applies.
 */
const std::string *
boundValue(const Config &cfg, const ParamSpec &spec)
{
    const std::map<std::string, std::string> &e = cfg.entries();
    auto it = e.find(spec.key);
    if (it == e.end())
        return nullptr;
    std::string bad = schema().checkValue(spec, it->second);
    if (!bad.empty())
        fatal(bad);
    return &it->second;
}

const ParamSpec &
boundSpec(const std::string &key, ParamType want)
{
    const ParamSpec &spec = schema().get(key);
    if (spec.type != want) {
        // Enum parameters read fine through the string accessor.
        bool enumAsString =
            spec.type == ParamType::Enum && want == ParamType::String;
        if (!enumAsString)
            panic("config key '", key, "' is ", typeName(spec.type),
                  ", accessed as ", typeName(want));
    }
    return spec;
}

} // namespace

bool
getBool(const Config &cfg, const std::string &key)
{
    const ParamSpec &spec = boundSpec(key, ParamType::Bool);
    const std::string *v = boundValue(cfg, spec);
    return v ? parseBool(*v) == 1 : spec.defBool;
}

u64
getUint(const Config &cfg, const std::string &key)
{
    const ParamSpec &spec = boundSpec(key, ParamType::Uint);
    const std::string *v = boundValue(cfg, spec);
    if (!v)
        return spec.defUint;
    u64 out = 0;
    parseU64(*v, out); // validated by boundValue
    return out;
}

double
getFloat(const Config &cfg, const std::string &key)
{
    const ParamSpec &spec = boundSpec(key, ParamType::Float);
    const std::string *v = boundValue(cfg, spec);
    if (!v)
        return spec.defFloat;
    double out = 0;
    parseF64(*v, out);
    return out;
}

std::string
getString(const Config &cfg, const std::string &key)
{
    const ParamSpec &spec = boundSpec(key, ParamType::String);
    const std::string *v = boundValue(cfg, spec);
    return v ? *v : spec.defString;
}

std::string
getEnum(const Config &cfg, const std::string &key)
{
    const ParamSpec &spec = boundSpec(key, ParamType::Enum);
    const std::string *v = boundValue(cfg, spec);
    return v ? *v : spec.defString;
}

} // namespace darco::conf
