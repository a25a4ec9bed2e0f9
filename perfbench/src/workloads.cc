#include <cstdio>
#include <cstdlib>

#include "core/cycle_cache.hh"
#include "core/dse.hh"
#include "sim/phase.hh"
#include "verify/legality.hh"
#include "verify/schedule_analysis.hh"
#include "serve/protocol.hh"
#include "sim/json.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ganacc;

std::map<std::string, std::uint64_t>
telemetryCounters(const std::string &telemetry)
{
    std::map<std::string, std::uint64_t> out;
    if (telemetry.empty())
        return out;
    const util::json::Value doc = util::json::parse(telemetry);
    if (const util::json::Value *c = doc.asObject().find("counters"))
        for (const auto &[name, v] : c->asObject().entries())
            out[name] = v.asUint64();
    return out;
}

std::map<std::string, std::uint64_t>
probeCounters(serve::Client &client)
{
    serve::Request probe;
    probe.statsProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    return telemetryCounters(rsp.ok ? rsp.telemetry : std::string());
}

std::uint64_t
lineField(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const std::size_t at = line.find(pat);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + pat.size(), nullptr, 10);
}

bool
checkResponse(const std::string &line, std::uint64_t id,
              const std::string &expectedStats, std::string *why)
{
    const std::string head = "{\"v\":1,\"id\":" + std::to_string(id) + ",";
    if (line.compare(0, head.size(), head) != 0) {
        *why = "response out of order or malformed: " + line.substr(0, 80);
        return false;
    }
    if (line.find("\"ok\":true") == std::string::npos) {
        *why = "request " + std::to_string(id) + " failed: " + line;
        return false;
    }
    // RunStats encode as one flat object of integers, so the first
    // '}' after "stats": closes it.
    const std::size_t at = line.find("\"stats\":");
    const std::size_t end =
        at == std::string::npos ? at : line.find('}', at);
    if (end == std::string::npos ||
        line.compare(at + 8, end + 1 - (at + 8), expectedStats) != 0) {
        *why = "request " + std::to_string(id) +
               " served stats differ from the direct run";
        return false;
    }
    return true;
}

bool
tallyResponse(const std::string &line, std::uint64_t id,
              const std::string &expectedStats, Shed shed, PhaseCount &c,
              RunResult &r)
{
    ++c.sent;
    std::string why;
    if (line.find("\"ok\":false") != std::string::npos) {
        ++c.failed;
        const bool overloaded =
            line.find(serve::kOverloadedError) != std::string::npos;
        c.shed += overloaded;
        if (!overloaded || shed == Shed::Fails)
            r.fail(c.phase + ": request " + std::to_string(id) +
                   " failed: " + line.substr(0, 200));
        return false;
    }
    if (!checkResponse(line, id, expectedStats, &why)) {
        r.fail(c.phase + ": " + why);
        return false;
    }
    ++c.succeeded;
    return true;
}

std::vector<std::string>
expectedStats(const std::vector<SpecJob> &jobs, int threads)
{
    return util::parallelMap(
        jobs, [](const SpecJob &j) { return sim::toJson(directRun(j)); },
        threads);
}

void
measureCodecAndCache(const std::vector<std::string> &requestLines,
                     const std::vector<std::string> &responseLines,
                     const std::vector<SpecJob> &jobs, Layers &layers)
{
    for (const std::string &line : requestLines)
        layers.time("serve.decode",
                    [&] { return serve::decodeRequest(line); });
    for (const std::string &line : responseLines) {
        const serve::Response rsp = serve::decodeResponse(line);
        layers.time("serve.encode",
                    [&] { return serve::encodeResponse(rsp); });
    }
    // A warm hit: the first call fills the process memo, the timed
    // second one is the lookup a served repeat pays.
    for (const SpecJob &j : jobs) {
        core::cachedRun(j.kind, j.unroll, j.spec);
        layers.time("core.cached_run_hit", [&] {
            return core::cachedRun(j.kind, j.unroll, j.spec);
        });
    }
    core::CycleCache::instance().clear();
}

void
measureClosedForm(const std::vector<SpecJob> &jobs, Layers &layers)
{
    for (const SpecJob &j : jobs) {
        const auto arch = core::makeArch(j.kind, j.unroll);
        layers.time("sim.closed_form", [&] { return arch->run(j.spec); });
    }
}

void
measureDseLayers(const core::DseConstraints &cons, Layers &layers,
                 RunResult &r)
{
    for (const gan::GanModel &model : paperModels()) {
        verify::Report modelReport;
        verify::checkModel(model, modelReport);
        core::CycleCache::instance().clear();
        for (int w = 1; w <= cons.maxWPof; ++w) {
            const int st = mem::deriveStPof(w);
            layers.time("verify.checkDesignPoint", [&] {
                verify::Report pr;
                verify::checkDesignPoint(modelReport, w, st,
                                         cons.pesPerChannel, pr);
                return pr.ok();
            });
            layers.time("core.evaluatePoint", [&] {
                return core::evaluatePoint(cons, model, w, st);
            });
        }
        // The prefilter's per-point work: both banks against every
        // phase job, at the widest and narrowest points of the sweep.
        for (int w : {1, cons.maxWPof}) {
            const int pes[2] = {w * cons.pesPerChannel,
                                mem::deriveStPof(w) * cons.pesPerChannel};
            for (sim::PhaseFamily f :
                 {sim::PhaseFamily::D, sim::PhaseFamily::G,
                  sim::PhaseFamily::Dw, sim::PhaseFamily::Gw}) {
                const auto jobs = sim::familyJobs(model, f);
                const auto st = core::paperUnroll(
                    core::ArchKind::ZFOST, core::BankRole::ST, f, pes[1]);
                const auto wu = core::paperUnroll(
                    core::ArchKind::ZFWST, core::BankRole::W, f, pes[0]);
                for (const sim::ConvSpec &job : jobs) {
                    layers.time("verify.staticScheduleRelation", [&] {
                        return verify::staticScheduleRelation(
                            core::ArchKind::ZFOST, st, job);
                    });
                    layers.time("verify.staticScheduleRelation", [&] {
                        return verify::staticScheduleRelation(
                            core::ArchKind::ZFWST, wu, job);
                    });
                }
            }
        }
    }
    core::CycleCache::instance().clear();
    r.add("core.dse_point_us", layers.summary("core.evaluatePoint").p50,
          "us");
    r.add("verify.legality_us",
          layers.summary("verify.checkDesignPoint").p50, "us");
    r.add("verify.schedule_us",
          layers.summary("verify.staticScheduleRelation").p50, "us");
}

void
addP50P99(RunResult &r, const Layers &layers, const std::string &layer,
          const std::string &name)
{
    const Summary s = layers.summary(layer);
    r.add(name + ".p50", s.p50, "us");
    r.add(name + ".p99", s.p99, "us");
}

void
addTraceOverhead(RunResult &traced, const RunResult &untraced)
{
    for (const char *name : {"lat_p50_us", "req_per_s", "wall_s"}) {
        const Metric *t = traced.find(name);
        const Metric *u = untraced.find(name);
        if (t && u && u->value != 0.0)
            traced.add(std::string("obs.trace_overhead_frac.") + name,
                       (t->value - u->value) / u->value, "frac");
    }
}

void
finishTrace(const Options &o, const TraceCapture &capture,
            const Layers &layers, RunResult &r)
{
    std::vector<LayerRow> rows = capture.table();
    for (LayerRow &row : layers.rows())
        rows.push_back(std::move(row));
    const std::string path =
        o.outDir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
        ".trace.json";
    capture.write(path);
    std::fprintf(stderr, "%s: per-layer table (trace: %s)\n%s",
                 o.workload.c_str(), path.c_str(),
                 formatTable(rows).c_str());
    r.layerTable = tableJson(rows);
}

RunResult
combineTraced(RunResult untraced, RunResult traced)
{
    RunResult r = std::move(untraced);
    r.correct = r.correct && traced.correct;
    for (std::string &p : traced.problems)
        r.problems.push_back(std::move(p));
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    for (Metric &m : traced.metrics)
        if (!r.find(m.name))
            r.metrics.push_back(std::move(m));
    for (PhaseCount &p : traced.phases) {
        p.phase = "traced " + p.phase;
        r.phases.push_back(std::move(p));
    }
    r.layerTable = std::move(traced.layerTable);
    return r;
}

} // namespace perfbench
