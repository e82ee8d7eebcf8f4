/**
 * @file
 * Versioned binary checkpoint serialization.
 *
 * The snapshot container is a magic/version header followed by a
 * self-describing sequence of named sections, each carrying its byte
 * length so a reader can verify framing and skip sections it does not
 * understand. All integers are little-endian regardless of host
 * byte order, so a checkpoint written on one machine restores on
 * another.
 *
 *   [magic u32][version u32]
 *   repeat:
 *     [name-len u16][name bytes][payload-len u64][payload bytes]
 *   [name-len u16 == 0]                         (end marker)
 *
 * Layers serialize themselves through save()/restore() hooks taking a
 * Serializer/Deserializer; the Controller composes them into the
 * checkpoint sections (see sim/controller.hh). Host code is *not*
 * serialized: translations are re-materialized by retranslating the
 * registered guest regions on restore, so checkpoints stay
 * host-agnostic.
 */

#ifndef DARCO_SNAPSHOT_IO_HH
#define DARCO_SNAPSHOT_IO_HH

#include <cstddef>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace darco::snapshot
{

/** Raised on malformed, truncated, or incompatible snapshot input. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error("snapshot: " + what)
    {}
};

/** "DRC0" little-endian. */
constexpr u32 snapshotMagic = 0x30435244u;
/**
 * Bump on any incompatible change to a section payload.
 * v2: Profiler BBV collection state + superblock construction
 *     recipes in the `tol` section (SimPoint sampled simulation).
 * v3: `cfg` section stores the schema-normalized effective values of
 *     execution-relevant parameters only (see docs/CONFIG.md), not
 *     the raw key/value store.
 * v4: `tol` section carries in-flight asynchronous translation jobs
 *     (entry, virtual enqueue/completion points, SB recipes) and the
 *     cost model gains the concurrent_translator overhead category.
 * v5: multi-core guest. The `tol` section stores per-core contexts
 *     (CpuState, retirement counters, mode/resume flags) plus the
 *     dispatch-interleaver RNG state and current core; the controller
 *     writes one `ref<i>`/`emem<i>` section pair per extra core
 *     (core 0 keeps the unsuffixed names).
 * v6: the cost model drops its synthesized-stream cursor from the
 *     `tol` section: an image holds functional state only, so
 *     attaching a timing sink before a save never changes it.
 */
constexpr u32 snapshotVersion = 6;

/**
 * Upper bound on a section name. Real names are a handful of bytes
 * ("cfg", "tol", "ref12"); the cap exists because the container now
 * also frames *network* payloads (campaign-service messages), where a
 * hostile peer controls every header field.
 */
constexpr u16 maxSectionNameBytes = 256;

/**
 * Checkpoint writer. Writes the header on construction; sections are
 * buffered so their byte length can prefix the payload. Call finish()
 * (or let the destructor do it) to emit the end marker.
 */
class Serializer
{
  public:
    explicit Serializer(std::ostream &os);
    ~Serializer();

    Serializer(const Serializer &) = delete;
    Serializer &operator=(const Serializer &) = delete;

    /** Open a named section; primitives write into it. */
    void beginSection(const std::string &name);
    /** Close the open section and emit it (name, length, payload). */
    void endSection();
    /** Emit the end marker. Idempotent. */
    void finish();

    void w8(u8 v);
    void w16(u16 v);
    void w32(u32 v);
    void w64(u64 v);
    void wf64(double v);
    void wbool(bool v) { w8(v ? 1 : 0); }
    void wstr(const std::string &s);
    void wbytes(const void *data, std::size_t len);

  private:
    std::ostream &os_;
    std::ostringstream section_;
    std::string sectionName_;
    bool inSection_ = false;
    bool finished_ = false;

    void raw8(std::ostream &os, u8 v);
    void raw16(std::ostream &os, u16 v);
    void raw32(std::ostream &os, u32 v);
    void raw64(std::ostream &os, u64 v);
};

/**
 * Checkpoint reader. Verifies magic and version on construction
 * (throwing SnapshotError otherwise); sections are consumed in stream
 * order via nextSection()/expectSection(), and every primitive read is
 * bounds-checked against the open section's length.
 *
 * Hostile-input posture (the container parses network bytes since the
 * campaign service): on seekable streams — which includes every
 * in-memory wire payload — a section length is validated against the
 * bytes actually remaining in the stream *before* anything is
 * allocated or skipped, and section names are capped at
 * maxSectionNameBytes, so a corrupt or adversarial header can never
 * drive an allocation beyond the input's own size.
 */
class Deserializer
{
  public:
    explicit Deserializer(std::istream &is);

    /**
     * Advance to the next section.
     * @return its name, or "" at the end marker.
     */
    std::string nextSection();

    /**
     * Advance to the next section and require it to be `name`
     * (unknown intervening sections are skipped for forward
     * compatibility). Throws SnapshotError when absent.
     */
    void expectSection(const std::string &name);

    /** Close the open section, requiring it fully consumed. */
    void endSection();

    u8 r8();
    u16 r16();
    u32 r32();
    u64 r64();
    double rf64();
    bool rbool() { return r8() != 0; }
    std::string rstr();
    void rbytes(void *data, std::size_t len);

    u32 version() const { return version_; }

  private:
    std::istream &is_;
    u32 version_ = 0;
    u64 sectionRemaining_ = 0;
    bool inSection_ = false;
    bool seekable_ = false;   //!< stream size is known
    std::streamoff end_ = 0;  //!< absolute end offset when seekable

    void need(std::size_t n);
    u8 raw8();
    u16 raw16();
    u32 raw32();
    u64 raw64();
};

} // namespace darco::snapshot

#endif // DARCO_SNAPSHOT_IO_HH
