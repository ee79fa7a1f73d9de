#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.hh"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

/** Open Timed scopes on this thread (indices into the span list). */
thread_local std::vector<int> tlOpen;

/** Process user + system CPU seconds (all threads). */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Steal ticks summed over all CPUs (/proc/stat; 0 if unreadable). */
uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.compare(0, 4, "cpu ") != 0)
        return 0;
    std::istringstream ss(line.substr(4));
    uint64_t field[8] = {};
    for (uint64_t &f : field)
        ss >> f;
    return field[7];   // user nice system idle iowait irq softirq steal
}

long
clockTicksPerSecond()
{
    const long t = sysconf(_SC_CLK_TCK);
    return t > 0 ? t : 100;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch).count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

ContentionMeter::ContentionMeter()
    : wall0_(Clock::now()), cpu0_(processCpuSeconds()),
      steal0_(stealTicks())
{
}

Contention
ContentionMeter::stop() const
{
    Contention c;
    c.wallS = secondsSince(wall0_);
    c.cpuS = processCpuSeconds() - cpu0_;
    c.stealS = static_cast<double>(stealTicks() - steal0_) /
        static_cast<double>(clockTicksPerSecond());
    return c;
}

Spans::Spans(bool traced)
{
    if (traced) {
        session_ = std::make_unique<forms::obs::TraceSession>();
        sessionZeroNs_ = nowNs() - session_->nowNs();
    }
}

Spans::~Spans() = default;

int
Spans::add(Span s)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
Spans::close(int index, int64_t endNs)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].endNs = endNs;
}

void
Spans::mergeLibrarySpans()
{
    if (!session_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    const size_t own = spans_.size();
    for (const forms::obs::TraceEvent &e : session_->events()) {
        if (e.type != forms::obs::TraceEvent::Type::Complete ||
            e.pid != forms::obs::TraceSession::kHostPid)
            continue;
        Span s;
        s.name = e.name;
        // The library's span names start with their module.
        if (e.name.rfind("compile::", 0) == 0)
            s.layer = "compile";
        else if (e.name.rfind("program ", 0) == 0)
            s.layer = "arch";
        else
            s.layer = "sim";
        s.startNs = sessionZeroNs_ + static_cast<int64_t>(e.tsUs * 1e3);
        s.endNs = s.startNs + static_cast<int64_t>(e.durUs * 1e3);
        spans_.push_back(std::move(s));
    }
    // Own spans keep the parents they were recorded with.
    for (size_t i = own; i < spans_.size(); ++i) {
        const Span &me = spans_[i];
        const int64_t my_len = me.endNs - me.startNs;
        int best = -1;
        int64_t best_len = 0;
        for (size_t j = 0; j < spans_.size(); ++j) {
            const Span &p = spans_[j];
            // Request spans overlap one another; never nest into them.
            if (j == i || p.request != 0)
                continue;
            const int64_t len = p.endNs - p.startNs;
            if (p.startNs <= me.startNs && p.endNs >= me.endNs &&
                (len > my_len || (len == my_len && j < i)) &&
                (best < 0 || len < best_len)) {
                best = static_cast<int>(j);
                best_len = len;
            }
        }
        spans_[i].parent = best;
    }
}

void
Spans::writeJsonLines(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"layer\": \"%s\", "
                     "\"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"parent\": %d, \"request\": %llu}\n",
                     s.name.c_str(), s.layer.c_str(),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent,
                     static_cast<unsigned long long>(s.request));
    std::fclose(f);
}

TraceWindow::TraceWindow(Spans &spans) : spans_(spans)
{
    if (spans_.session_) {
        spans_.enabled_ = true;
        spans_.session_->install();
    }
}

TraceWindow::~TraceWindow()
{
    if (spans_.session_) {
        spans_.session_->uninstall();
        spans_.enabled_ = false;
    }
}

std::map<std::string, double>
Spans::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<int>> kids(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            kids[static_cast<size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (int k : kids[i]) {
            const Span &c = spans_[static_cast<size_t>(k)];
            const int64_t a = std::max(c.startNs, s.startNs);
            const int64_t b = std::min(c.endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_a = 0, cur_b = -1;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;
        self[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-6;
    }
    return self;
}

Timed::Timed(Spans &spans, const char *name, const char *layer, double *ms,
             uint64_t request)
    : spans_(spans), name_(name), layer_(layer), ms_(ms),
      request_(request), startNs_(nowNs()), slot_(-1)
{
    if (spans_.enabled()) {
        Span s;
        s.name = name_;
        s.layer = layer_;
        s.startNs = startNs_;
        s.endNs = startNs_;
        s.parent = tlOpen.empty() ? -1 : tlOpen.back();
        s.request = request_;
        slot_ = spans_.add(std::move(s));
        tlOpen.push_back(slot_);
    }
}

Timed::~Timed()
{
    const int64_t end = nowNs();
    if (ms_)
        *ms_ += static_cast<double>(end - startNs_) * 1e-6;
    if (slot_ >= 0) {
        tlOpen.pop_back();
        spans_.close(slot_, end);
    }
}

void
Result::fail(const std::string &why)
{
    correct = false;
    ++failed;
    if (notes.size() < 20)
        notes.push_back(why);
}

bool
moreSetups(const Options &opt, const std::vector<double> &setupS)
{
    if (opt.trace)
        return setupS.empty();
    double total = 0.0;
    for (double s : setupS)
        total += s;
    const bool more =
        setupS.size() < 3 || (total < 1.5 && setupS.size() < 25);
    if (more && !setupS.empty() && setupS.back() < 0.04)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(0.04 - setupS.back()));
    return more;
}

forms::ThreadPool &
benchPool(int threads)
{
    static forms::ThreadPool pool(threads);
    return pool;
}

void
reportSelfTimes(const Spans &spans, Result &res)
{
    std::map<std::string, double> self = spans.selfMsByLayer();
    for (const char *layer :
         {"bench", "compile", "admm", "sim", "arch", "serve"})
        res.set(std::string(layer) + ".self_ms", self[layer], "ms");
}

} // namespace perfbench
