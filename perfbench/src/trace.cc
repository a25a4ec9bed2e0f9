#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "serve/protocol.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace perfbench {

using ganacc::obs::TraceEvent;
using ganacc::obs::TraceSink;

namespace {

/** Spans written to a trace file at most (about 100 bytes each). */
constexpr std::size_t kMaxWritten = 200000;

} // namespace

Summary
Layers::summary(const std::string &layer) const
{
    auto it = samples_.find(layer);
    return it == samples_.end() ? Summary{} : summarize(it->second);
}

std::vector<LayerRow>
Layers::rows() const
{
    std::vector<LayerRow> out;
    for (const auto &[name, v] : samples_) {
        const Summary s = summarize(v);
        out.push_back({"perfbench (micro)", name, s.n, s.sum, s.p50, s.p99,
                       s.sum});
    }
    return out;
}

void
TraceCapture::arm()
{
    TraceSink::instance().enable("");
    base_ = Clock::now();
}

void
TraceCapture::span(const char *name, Clock::time_point t0,
                   Clock::time_point t1, std::string args)
{
    TraceEvent ev;
    ev.name = name;
    ev.cat = "bench";
    ev.tid = TraceSink::threadLane();
    ev.ts = std::uint64_t(std::max(0.0, usBetween(base_, t0)));
    ev.dur = std::uint64_t(std::max(0.0, usBetween(t0, t1)));
    ev.args = std::move(args);
    TraceSink::instance().record(std::move(ev));
}

std::vector<const TraceEvent *>
TraceCapture::events(const std::string &label, const std::string &name) const
{
    std::vector<const TraceEvent *> out;
    for (const TraceEvent &ev : events_)
        if (ev.name == name && processes_[std::size_t(ev.pid)] == label)
            out.push_back(&ev);
    return out;
}

std::vector<double>
TraceCapture::durations(const std::string &label,
                        const std::string &name) const
{
    std::vector<double> out;
    for (const TraceEvent *ev : events(label, name))
        out.push_back(double(ev->dur));
    return out;
}

void
TraceCapture::addDaemon(const std::string &label, const std::string &batch)
{
    const int pid = int(processes_.size());
    processes_.push_back(label);
    for (TraceEvent &ev : ganacc::serve::decodeSpanBatch(batch)) {
        ev.pid = pid;
        events_.push_back(std::move(ev));
    }
}

void
TraceCapture::finish()
{
    for (TraceEvent &ev : TraceSink::instance().drain()) {
        ev.pid = 0;
        events_.push_back(std::move(ev));
    }
    TraceSink::instance().disable();
}

std::vector<LayerRow>
TraceCapture::table() const
{
    // Self time: within one (pid, tid) lane spans nest, so a span's
    // children are the spans that start inside it before it ends.
    std::vector<const TraceEvent *> order;
    for (const TraceEvent &ev : events_)
        if (ev.ph == 'X')
            order.push_back(&ev);
    std::sort(order.begin(), order.end(),
              [](const TraceEvent *a, const TraceEvent *b) {
                  return std::make_tuple(a->pid, a->tid, a->ts, b->dur) <
                         std::make_tuple(b->pid, b->tid, b->ts, a->dur);
              });
    std::map<const TraceEvent *, double> childUs;
    std::vector<const TraceEvent *> stack;
    for (const TraceEvent *ev : order) {
        while (!stack.empty() &&
               (stack.back()->pid != ev->pid ||
                stack.back()->tid != ev->tid ||
                stack.back()->ts + stack.back()->dur <= ev->ts))
            stack.pop_back();
        if (!stack.empty())
            childUs[stack.back()] += double(ev->dur);
        stack.push_back(ev);
    }

    std::map<std::pair<int, std::string>, std::vector<double>> durs;
    std::map<std::pair<int, std::string>, double> self;
    for (const TraceEvent *ev : order) {
        const auto key = std::make_pair(ev->pid, ev->name);
        durs[key].push_back(double(ev->dur));
        self[key] += std::max(0.0, double(ev->dur) - childUs[ev]);
    }
    std::vector<LayerRow> rows;
    for (const auto &[key, v] : durs) {
        const Summary s = summarize(v);
        LayerRow r;
        r.process = processes_[std::size_t(key.first)];
        r.name = key.second;
        r.n = s.n;
        r.sumUs = s.sum;
        r.p50Us = s.p50;
        r.p99Us = s.p99;
        r.selfUs = self[key];
        rows.push_back(r);
    }
    return rows;
}

void
TraceCapture::write(const std::string &path) const
{
    std::vector<TraceEvent> all;
    for (std::size_t p = 0; p < processes_.size(); ++p) {
        TraceEvent meta;
        meta.name = "process_name";
        meta.ph = 'M';
        meta.pid = int(p);
        meta.args = "{\"name\":\"" +
                    ganacc::util::escapeJson(processes_[p]) + "\"}";
        all.push_back(meta);
    }
    // Keep the file loadable: the table above covers every span, the
    // file the first kMaxWritten of them.
    const std::size_t kept = std::min(events_.size(), kMaxWritten);
    all.insert(all.end(), events_.begin(), events_.begin() + long(kept));
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        ganacc::util::fatal("cannot write ", path);
    ganacc::obs::writeChromeTraceJson(
        os, all,
        {{"source", "ganacc perfbench"},
         {"spans", std::to_string(events_.size())},
         {"spansWritten", std::to_string(kept)}});
}

std::string
formatTable(const std::vector<LayerRow> &rows)
{
    std::ostringstream os;
    os << std::left << std::setw(22) << "process" << std::setw(24)
       << "span" << std::right << std::setw(9) << "n" << std::setw(13)
       << "sum_us" << std::setw(10) << "p50_us" << std::setw(10)
       << "p99_us" << std::setw(13) << "self_us" << "\n";
    os << std::fixed << std::setprecision(0);
    for (const LayerRow &r : rows)
        os << std::left << std::setw(22) << r.process << std::setw(24)
           << r.name << std::right << std::setw(9) << r.n
           << std::setw(13) << r.sumUs << std::setw(10) << r.p50Us
           << std::setw(10) << r.p99Us << std::setw(13) << r.selfUs
           << "\n";
    return os.str();
}

std::string
tableJson(const std::vector<LayerRow> &rows)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const LayerRow &r = rows[i];
        os << (i ? "," : "") << "{\"process\":\""
           << ganacc::util::escapeJson(r.process) << "\",\"span\":\""
           << ganacc::util::escapeJson(r.name) << "\",\"n\":" << r.n
           << ",\"sum_us\":" << num(r.sumUs) << ",\"p50_us\":"
           << num(r.p50Us) << ",\"p99_us\":" << num(r.p99Us)
           << ",\"self_us\":" << num(r.selfUs) << "}";
    }
    os << "]";
    return os.str();
}

} // namespace perfbench
