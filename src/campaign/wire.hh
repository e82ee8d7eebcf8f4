/**
 * @file
 * Wire encoding for the distributed campaign service.
 *
 * Every protocol message is one network frame (net/frame.hh) whose
 * payload is a snapshot container (snapshot::Serializer) holding
 * exactly one section. The section *name* is the message type; the
 * payload carries the message fields. Reusing the checkpoint
 * container buys three things for free: little-endian portability,
 * bounds-checked parsing hardened against hostile input, and version
 * gating (a peer built against a different snapshot version is
 * rejected by the Deserializer's header check before any field is
 * read).
 *
 * Message vocabulary (worker → coordinator):
 *   hello     proto u32, advisory worker id
 *   next      request an assignment
 *   result    job index + full JobResult, a sampled job's plan
 *             and a proving job's proof counts included (then
 *             awaits the next assignment in the same reply slot)
 *   ckpt.get  checkpoint-store key (a prefix or per-simpoint image)
 *   ckpt.put  checkpoint-store key + image bytes
 *   ping      heartbeat; no reply
 *
 * Coordinator → worker (always a reply to the message above it):
 *   welcome   proto u32, assigned worker id, campaign RunOptions
 *             subset, heartbeat interval, store-enabled flag
 *   job       job index + full Job
 *   wait      nothing runnable now; retry after the carried delay
 *   shutdown  campaign complete, disconnect
 *   ckpt.hit  image bytes / ckpt.miss (no payload)
 *   ok        ckpt.put acknowledged
 *   error     human-readable refusal (protocol mismatch, ...)
 *
 * The worker is the only reader of its socket and serializes its
 * writes under a mutex (the heartbeat thread shares the socket), so
 * the strict request/reply discipline — `ping` excepted, which has no
 * reply — keeps both sides trivially in sync.
 */

#ifndef DARCO_CAMPAIGN_WIRE_HH
#define DARCO_CAMPAIGN_WIRE_HH

#include <functional>
#include <sstream>
#include <string>

#include "campaign/campaign.hh"
#include "snapshot/io.hh"

namespace darco::campaign::wire
{

/** Bumped on any message-vocabulary or field-layout change. */
constexpr u32 protoVersion = 4;

/** Message-type section names. */
namespace msg
{
constexpr const char *hello = "hello";
constexpr const char *next = "next";
constexpr const char *result = "result";
constexpr const char *ckptGet = "ckpt.get";
constexpr const char *ckptPut = "ckpt.put";
constexpr const char *ping = "ping";
constexpr const char *welcome = "welcome";
constexpr const char *job = "job";
constexpr const char *wait = "wait";
constexpr const char *shutdown = "shutdown";
constexpr const char *ckptHit = "ckpt.hit";
constexpr const char *ckptMiss = "ckpt.miss";
constexpr const char *ok = "ok";
constexpr const char *error = "error";
} // namespace msg

/**
 * Build one message payload: a snapshot container with a single
 * section named `type`, fields written by `body` (null for messages
 * with no fields).
 */
std::string
encode(const std::string &type,
       const std::function<void(snapshot::Serializer &)> &body = {});

/**
 * Parse one received payload. Construction decodes the container
 * header (throwing snapshot::SnapshotError on garbage or a version
 * mismatch) and opens the message section; read the fields through
 * `d`. Messages whose fields are fully consumed can be close()d to
 * assert exact framing, but partial reads are legal (forward
 * compatibility).
 */
class Decoder
{
  private:
    std::istringstream is_; //!< must precede d (init order)

  public:
    snapshot::Deserializer d;
    std::string type;

    explicit Decoder(const std::string &payload)
        : is_(payload), d(is_), type(d.nextSection())
    {}
};

// --- field codecs ------------------------------------------------------

void writeProgram(snapshot::Serializer &s, const guest::Program &p);
guest::Program readProgram(snapshot::Deserializer &d);

void writeConfig(snapshot::Serializer &s, const Config &cfg);
Config readConfig(snapshot::Deserializer &d);

void writeJob(snapshot::Serializer &s, const Job &job);
Job readJob(snapshot::Deserializer &d);

void writeResult(snapshot::Serializer &s, const JobResult &r);
JobResult readResult(snapshot::Deserializer &d);

/**
 * The campaign-level execution knobs a worker must mirror (timing,
 * sample mode/parameters). Local-only fields — jobs, traceDir,
 * store — are deliberately not shipped: a worker's store is the
 * coordinator's, reached over ckpt.get/ckpt.put when `welcome`
 * announces one.
 */
void writeRunOptions(snapshot::Serializer &s, const RunOptions &o);
void readRunOptions(snapshot::Deserializer &d, RunOptions &o);

} // namespace darco::campaign::wire

#endif // DARCO_CAMPAIGN_WIRE_HH
