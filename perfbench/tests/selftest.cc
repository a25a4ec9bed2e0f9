/**
 * @file
 * Self-tests of the benchmark's input generators, its served-response
 * checks and its metric names.
 *
 *   perfbench_selftest BENCHMARK.json
 *
 * Exits 0 when every check holds, 1 otherwise.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "serve/protocol.hh"
#include "sim/json.hh"
#include "util/json.hh"
#include "verify/legality.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

std::string
requestFile(std::uint64_t seed, std::size_t n)
{
    std::string all;
    for (const std::string &line : requestLines(uniqueJobs(seed, n)))
        all += line + "\n";
    return all;
}

std::string
dseText(std::uint64_t seed)
{
    std::ostringstream os;
    for (const auto &c : dseConstraints(seed, 4))
        os << c.offchip.bandwidthBitsPerSec << ' ' << c.budget.luts << ' '
           << c.budget.flipFlops << ' ' << c.budget.bram36 << ' '
           << c.budget.dsp << '\n';
    return os.str();
}

/** Whether a run that receives `line` for request 1 stays correct,
 *  and how the response is counted. */
struct Tally
{
    bool correct;
    PhaseCount count;
};

Tally
tally(const std::string &line, const std::string &expected, Shed shed)
{
    RunResult r;
    PhaseCount c{"check"};
    tallyResponse(line, 1, expected, shed, c, r);
    return {r.correct, c};
}

/** The served-response checks of daemon-unique and fleet-repeat. */
void
checkResponseTally()
{
    const SpecJob job = uniqueJobs(7, 1).front();
    const ganacc::sim::RunStats stats = directRun(job);
    const std::string expected = ganacc::sim::toJson(stats);
    ganacc::serve::Response ok;
    ok.id = 1;
    ok.ok = true;
    ok.stats = stats;
    ok.cache = "sim";
    const std::string good = ganacc::serve::encodeResponse(ok);
    ok.stats.cycles += 1;
    const std::string wrong = ganacc::serve::encodeResponse(ok);
    const std::string error = ganacc::serve::encodeResponse(
        ganacc::serve::errorResponse(1, "simulation failed"));
    const std::string shed = ganacc::serve::encodeResponse(
        ganacc::serve::errorResponse(1, ganacc::serve::kOverloadedError));

    const Tally g = tally(good, expected, Shed::Fails);
    check(g.correct && g.count.succeeded == 1 && g.count.failed == 0,
          "a served result equal to the direct run passes");
    check(!tally(wrong, expected, Shed::Counted).correct,
          "a served result that differs from the direct run fails the run");
    const Tally e = tally(error, expected, Shed::Counted);
    check(!e.correct && e.count.failed == 1 && e.count.shed == 0,
          "an error response fails the run");
    check(!tally(shed, expected, Shed::Fails).correct,
          "a shed response fails the run of a daemon that does not shed");
    const Tally sc = tally(shed, expected, Shed::Counted);
    check(sc.correct && sc.count.failed == 1 && sc.count.shed == 1,
          "a shed response after the router's retries is counted, not a "
          "defect");
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr std::size_t kN = 20000;

    check(requestFile(7, kN) == requestFile(7, kN),
          "same seed gives a byte-identical daemon-unique request file");
    check(requestFile(7, kN) != requestFile(8, kN),
          "different seeds give different daemon-unique request files");
    check(requestFile(7, 100) == requestFile(7, kN).substr(
                                     0, requestFile(7, 100).size()),
          "a smaller pool is a prefix of a larger one");

    const std::vector<SpecJob> jobs = uniqueJobs(7, kN);
    std::set<std::string> keys;
    bool legal = true;
    for (const SpecJob &j : jobs) {
        keys.insert(contentKeyOf(j));
        ganacc::verify::Report report;
        ganacc::verify::checkUnroll(j.kind, j.unroll, {j.spec}, report);
        legal = legal && report.errorCount() == 0 &&
                report.warningCount() == 0;
    }
    check(keys.size() == jobs.size(),
          "every daemon-unique content key is distinct");
    check(legal, "every daemon-unique unrolling passes verify::checkUnroll");

    const std::vector<SpecJob> table = tableVJobs();
    check(table.size() == 360, "the Table V spec matrix has 360 requests");
    check(requestLines(table) == requestLines(tableVJobs()),
          "the fleet-repeat request file is identical run to run");

    check(dseText(3) == dseText(3),
          "same seed gives identical DSE constraint sets");
    check(dseText(3) != dseText(4),
          "different seeds give different DSE constraint sets");
    check(campaignPlan(3, 64).describe() == campaignPlan(3, 64).describe() &&
              campaignPlan(3, 64).describe() != campaignPlan(4, 64).describe(),
          "the fault plan is a function of the seed");

    checkResponseTally();

    check(validMetricName("serve.decode_us.p50") &&
              validMetricName("sim.walk_mmac_per_s.ZFOST") &&
              !validMetricName("lat p50") && !validMetricName("µs") &&
              !validMetricName(""),
          "metric-name pattern [A-Za-z0-9_.-]+");
    if (argc > 1) {
        std::ifstream is(argv[1]);
        std::stringstream ss;
        ss << is.rdbuf();
        const auto doc = ganacc::util::json::parse(ss.str());
        bool ok = true;
        std::size_t n = 0;
        for (const char *group : {"end_to_end", "per_layer"})
            for (const auto &m : doc.asObject().at(group).asArray()) {
                ok = ok && validMetricName(
                               m.asObject().at("name").asString());
                ++n;
            }
        check(ok && n > 0, "every metric name in " + std::string(argv[1]) +
                               " matches [A-Za-z0-9_.-]+");
    }

    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
