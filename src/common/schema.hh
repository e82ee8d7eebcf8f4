/**
 * @file
 * Schema-registered configuration (darco::conf).
 *
 * Every DARCO configuration parameter is declared exactly once, in the
 * ConfigSchema constructor (schema.cc): name, type, default, valid
 * range / enum domain, one-line help, and whether the parameter is
 * *execution-relevant* (it changes what the simulated machine does, as
 * opposed to how it is measured or validated). Everything else falls
 * out of that single declaration:
 *
 *  - typed accessors (conf::getUint & friends) resolve defaults from
 *    the schema, so no call site carries an inline default;
 *  - validation rejects unknown keys (with a nearest-match "did you
 *    mean" suggestion), out-of-range values and bad enum strings —
 *    the Controller validates at construction and every CLI validates
 *    at its entry point, so a typo'd sweep key can never silently run
 *    the default experiment;
 *  - checkpoints store the schema-normalized *execution-relevant*
 *    effective config only, so restores succeed across cosmetic
 *    differences (validation toggles, timing/power parameters) and a
 *    real mismatch is refused naming the exact parameter and both
 *    values;
 *  - the full parameter reference (docs/CONFIG.md, --list-config) is
 *    generated, never hand-maintained;
 *  - darco_fuzz --rand-config draws random *valid* configs from the
 *    declared fuzz ranges/domains.
 *
 * The flat Config store (config.hh) stays the transport: this layer
 * binds meaning to its keys.
 */

#ifndef DARCO_COMMON_SCHEMA_HH
#define DARCO_COMMON_SCHEMA_HH

#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace darco::conf
{

enum class ParamType
{
    Bool,
    Uint,
    Float,
    String,
    Enum,
};

/** "bool", "uint", ... (docs, error messages). */
const char *typeName(ParamType t);

/**
 * Parse a whole unsigned number (decimal, 0x hex or 0 octal) into
 * `out`: false on an empty string, a minus sign, trailing text or a
 * value above 2^64-1. The one parser of uint config values and of
 * the tools' numeric flags.
 */
bool parseU64(const std::string &s, u64 &out);

/** One declared configuration parameter. */
struct ParamSpec
{
    std::string key;
    ParamType type = ParamType::String;
    std::string help;

    /**
     * True when the parameter changes the simulated machine's
     * behaviour (translation, emulation, cost accounting, RNG
     * streams) rather than how a run is measured (timing/power
     * models) or validated (sync toggles). Checkpoint compatibility
     * is decided over execution-relevant parameters only.
     */
    bool relevantToExecution = true;

    // Typed default; the member matching `type` is authoritative.
    bool defBool = false;
    u64 defUint = 0;
    double defFloat = 0.0;
    std::string defString; // String and Enum

    // Valid range (numeric types; inclusive).
    u64 minUint = 0;
    u64 maxUint = ~0ull;
    // Mask-indexed structures (IBTC, predictors, cache sets) need a
    // power-of-two size; validation rejects anything else.
    bool requirePow2 = false;
    double minFloat = 0.0;
    double maxFloat = 0.0;

    // Enum domain.
    std::vector<std::string> domain;

    // Random-config sampling (darco_fuzz --rand-config): only
    // fuzzable parameters are drawn, inside [fuzzMin*, fuzzMax*]
    // (numeric) or the enum domain / {true,false}.
    bool fuzzable = false;
    u64 fuzzMinUint = 0, fuzzMaxUint = 0;
    double fuzzMinFloat = 0.0, fuzzMaxFloat = 0.0;

    /** Mark as measurement/validation-only (not execution-relevant). */
    ParamSpec &cosmetic();
    /** Constrain a uint parameter to powers of two. */
    ParamSpec &pow2();
    /** Enable random-config sampling over [lo, hi] (uint). */
    ParamSpec &fuzz(u64 lo, u64 hi);
    /** Enable random-config sampling over [lo, hi] (float). */
    ParamSpec &fuzz(double lo, double hi);
    /** Enable random-config sampling (bool toggle / enum domain). */
    ParamSpec &fuzzToggle();

    /** Canonical rendering of the default value. */
    std::string defaultString() const;
    /** Range/domain rendering for the generated docs ("-" if none). */
    std::string rangeString() const;
};

/**
 * The parameter registry. Use the process-wide schema() instance;
 * separate instances exist only so tests can exercise the machinery.
 */
class ConfigSchema
{
  public:
    /** Declares every DARCO parameter (the single source of truth). */
    ConfigSchema();

    /** Look up a key; nullptr when unknown. */
    const ParamSpec *find(const std::string &key) const;

    /** Look up a key a component owns; panics when undeclared. */
    const ParamSpec &get(const std::string &key) const;

    /** All declared parameters, sorted by key. */
    std::vector<const ParamSpec *> params() const;

    std::size_t size() const { return params_.size(); }

    /**
     * Nearest declared key by edit distance; empty when nothing is
     * plausibly close.
     */
    std::string suggest(const std::string &key) const;

    /**
     * Why `value` is invalid for `spec` — malformed, out of range,
     * outside the enum domain. Empty when the value is acceptable.
     */
    std::string checkValue(const ParamSpec &spec,
                           const std::string &value) const;

    /**
     * Every problem in `cfg`: unknown keys (with suggestion) and bad
     * values; once each value passes, a cache level (l1i, l1d, l2)
     * smaller than one set (cacheGeometryError). Empty when valid.
     */
    std::vector<std::string> validationErrors(const Config &cfg) const;

    /**
     * fatal() listing every problem (prefixed by `context` when
     * non-empty); no-op on a valid config.
     */
    void validate(const Config &cfg,
                  const std::string &context = "") const;

    /**
     * Canonically-rendered copy of the explicitly set entries.
     * Tolerant: unknown keys and malformed values are carried through
     * unchanged (validate() is the gate; normalize() must work on
     * anything for diagnostics).
     */
    Config normalize(const Config &cfg) const;

    /**
     * The full effective config: every declared parameter mapped to
     * its canonical value — the explicitly set one when present,
     * the declared default otherwise.
     */
    std::map<std::string, std::string> effective(const Config &cfg) const;

    /** effective() restricted to execution-relevant parameters. */
    std::map<std::string, std::string>
    executionRelevant(const Config &cfg) const;

    /**
     * The generated parameter reference as a markdown document —
     * exactly what `--list-config` prints and what docs/CONFIG.md
     * pins (CI diffs the two).
     */
    std::string referenceMarkdown() const;

    /**
     * Draw one random *valid* config from the fuzzable parameters'
     * declared fuzz ranges/domains (deterministic in `seed`): each
     * fuzzable parameter is included with probability ~1/2.
     * @return "key=value" override lines.
     */
    std::vector<std::string> randomOverrides(u64 seed) const;

  private:
    ParamSpec &declare(const std::string &key, ParamType type,
                       const std::string &help);
    ParamSpec &declBool(const std::string &key, bool def,
                        const std::string &help);
    ParamSpec &declUint(const std::string &key, u64 def, u64 min,
                        u64 max, const std::string &help);
    ParamSpec &declFloat(const std::string &key, double def, double min,
                         double max, const std::string &help);
    ParamSpec &declString(const std::string &key, const std::string &def,
                          const std::string &help);
    ParamSpec &declEnum(const std::string &key, const std::string &def,
                        const std::vector<std::string> &domain,
                        const std::string &help);

    friend struct ParamSpec;

    std::map<std::string, ParamSpec> params_;
};

/** The process-wide schema (all parameters declared). */
const ConfigSchema &schema();

/**
 * "" when a cache level of `size` bytes holds at least one set of
 * `assoc` lines of `line` bytes; otherwise the error, which names the
 * level's keys. Config validation checks l1i, l1d and l2 with it, and
 * timing::Cache its own geometry.
 */
std::string cacheGeometryError(const std::string &level, u64 size,
                               u64 assoc, u64 line);

/**
 * Schema-bound typed accessors: the one way components read their
 * parameters. The key must be declared with the matching type
 * (panics otherwise — that is a DARCO bug, not a user error); a
 * present value is validated against the declared range/domain
 * (fatal on violation); an absent value resolves to the declared
 * default.
 */
bool getBool(const Config &cfg, const std::string &key);
u64 getUint(const Config &cfg, const std::string &key);
double getFloat(const Config &cfg, const std::string &key);
std::string getString(const Config &cfg, const std::string &key);
/** Enum accessor: returns one of the declared domain strings. */
std::string getEnum(const Config &cfg, const std::string &key);

} // namespace darco::conf

#endif // DARCO_COMMON_SCHEMA_HH
