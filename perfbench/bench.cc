#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

#include <sys/resource.h>

namespace perfbench {

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    errors.push_back(what);
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

std::string
Outcome::json() const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        // %.17g keeps every digit of the measured double.
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(metrics[i].second.first)
                          ? metrics[i].second.first
                          : 0.0);
        s += (i ? ", " : "") + std::string("\"") + metrics[i].first +
             "\": {\"value\": " + num + ", \"unit\": \"" +
             metrics[i].second.second + "\"}";
    }
    s += "}}";
    return s;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double>
leastOf(const std::vector<std::vector<double>> &reps)
{
    if (reps.empty())
        return {};
    std::vector<double> m = reps.front();
    for (const std::vector<double> &r : reps) {
        if (r.size() != m.size())
            return {};
        for (std::size_t i = 0; i < m.size(); ++i)
            m[i] = std::min(m[i], r[i]);
    }
    return m;
}

double
total(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
selfPeakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
pidPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
setupSeconds(const Options &opt)
{
    return static_cast<double>(nowNs() - opt.spawnNs) * 1e-9;
}

std::uint32_t
Spans::intern(const char *name)
{
    auto it = ids_.find(std::string_view(name));
    if (it != ids_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
}

std::int64_t
Spans::begin(const char *name, std::uint64_t group)
{
    if (!on_)
        return -1;
    Span s;
    s.name = intern(name);
    s.group = group;
    s.parent = open_;
    s.start = nowNs();
    spans_.push_back(s);
    open_ = static_cast<std::int64_t>(spans_.size() - 1);
    return open_;
}

void
Spans::end(std::int64_t idx)
{
    if (idx < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(idx)];
    s.end = nowNs();
    open_ = s.parent;
}

void
Spans::add(const char *name, std::uint64_t group, std::int64_t start,
           std::int64_t end, std::int64_t parent)
{
    if (!on_)
        return;
    Span s;
    s.name = intern(name);
    s.group = group;
    s.start = start;
    s.end = end;
    s.parent = parent < 0 ? open_ : parent;
    spans_.push_back(s);
}

std::map<std::string, double>
Spans::selfMs() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[names_[s.name]] +=
            static_cast<double>(s.end - s.start - childNs[i]) * 1e-6;
    }
    return out;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << "{\"schema\": \"perfbench-spans-v1\", \"self_ms\": {";
    bool first = true;
    for (const auto &[name, ms] : selfMs()) {
        f << (first ? "" : ", ") << '"' << name << "\": " << ms;
        first = false;
    }
    f << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << (i ? ",\n" : "") << "[\"" << names_[s.name] << "\", "
          << s.start << ", " << s.end << ", " << s.parent << ", "
          << s.group << ']';
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

int
selfTestLine(const std::string &workload, const std::string &check,
             bool ok)
{
    std::fprintf(stderr, "self-test %-14s %-48s %s\n", workload.c_str(),
                 check.c_str(), ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace perfbench
