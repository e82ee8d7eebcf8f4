/**
 * @file
 * Key/value configuration store.
 *
 * Every DARCO component is parameterized through a Config: a flat
 * string-keyed dictionary with "k=v" parsing, so that benches and
 * examples can sweep parameters without recompiling.
 */

#ifndef DARCO_COMMON_CONFIG_HH
#define DARCO_COMMON_CONFIG_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace darco
{

namespace conf
{
class ConfigSchema;
}

/**
 * Flat configuration dictionary.
 *
 * This is the transport layer only: it knows nothing about which keys
 * exist, and it parses no values. Components read their parameters
 * through the schema-bound typed accessors in common/schema.hh
 * (darco::conf), which parse each value by its declared type and
 * resolve defaults from the central parameter registry. Malformed
 * values raise fatal() there, since they are user errors.
 */
class Config
{
  public:
    Config() = default;

    /** Build from a list of "key=value" strings. */
    explicit Config(const std::vector<std::string> &kvs);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, s64 value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** Parse and apply one "key=value" string. */
    void parseLine(const std::string &kv);

    bool has(const std::string &key) const;

    /** The raw value of `key`; empty when unset. */
    std::string getString(const std::string &key) const;

    /**
     * Validate every entry against a parameter schema: unknown keys
     * (with a nearest-match suggestion), out-of-range values and bad
     * enum strings raise fatal(). Convenience for
     * schema.validate(cfg, context).
     */
    void validate(const conf::ConfigSchema &schema,
                  const std::string &context = "") const;

    /** All key/value pairs in sorted order (for dumping). */
    const std::map<std::string, std::string> &entries() const
    {
        return store_;
    }

  private:
    std::map<std::string, std::string> store_;
};

} // namespace darco

#endif // DARCO_COMMON_CONFIG_HH
