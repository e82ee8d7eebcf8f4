#include "common/stats.hh"

namespace darco
{

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

u64
StatGroup::value(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatGroup::resetAll()
{
    for (auto &[_, c] : counters_)
        c.reset();
}

namespace
{

std::string
jsonKey(const std::string &s)
{
    // Stat names are controlled identifiers; escape defensively.
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{\"name\":\"" << jsonKey(name_) << "\",\"counters\":{";
    bool first = true;
    for (const auto &[k, c] : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonKey(k) << "\":" << c.value();
    }
    os << "}}";
}

} // namespace darco
