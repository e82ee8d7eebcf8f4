#include "common/config.hh"

#include "common/logging.hh"

namespace darco
{

Config::Config(const std::vector<std::string> &kvs)
{
    for (const auto &kv : kvs)
        parseLine(kv);
}

void
Config::set(const std::string &key, const std::string &value)
{
    store_[key] = value;
}

void
Config::set(const std::string &key, s64 value)
{
    store_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    store_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, bool value)
{
    store_[key] = value ? "true" : "false";
}

void
Config::parseLine(const std::string &kv)
{
    auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("malformed config entry '", kv, "', expected key=value");
    store_[kv.substr(0, eq)] = kv.substr(eq + 1);
}

bool
Config::has(const std::string &key) const
{
    return store_.count(key) != 0;
}

std::string
Config::getString(const std::string &key) const
{
    auto it = store_.find(key);
    return it == store_.end() ? "" : it->second;
}

void
Config::merge(const Config &other)
{
    for (const auto &[k, v] : other.store_)
        store_[k] = v;
}

} // namespace darco
