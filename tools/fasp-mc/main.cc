/**
 * @file
 * fasp-mc: the model-checker CLI (DESIGN.md §13).
 *
 *   fasp-mc --list
 *   fasp-mc --scenario same-page-insert [--engine FAST] [options]
 *   fasp-mc --replay trace.fmc
 *
 * Exit codes: 0 clean, 1 violation found (inverted for bug-* fixtures,
 * which MUST produce one), 2 usage/setup error. With --min-schedules N
 * a clean exploration that covered fewer than N distinct schedules
 * also exits 1, so CI notices when the state space silently collapses
 * (e.g. an interception point got compiled away).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../common/mini_json.h"
#include "mc/explorer.h"
#include "mc/scenarios.h"
#include "mc/trace.h"

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: fasp-mc --scenario NAME [options]\n"
        "       fasp-mc --replay FILE [--trace-dir DIR]\n"
        "       fasp-mc --list\n"
        "options:\n"
        "  --engine NAME         FAST|FASH|NVWAL|LegacyWal|Journal\n"
        "                        (default FAST)\n"
        "  --max-schedules N     schedule budget (default 2000)\n"
        "  --min-schedules N     fail if fewer schedules explored\n"
        "  --preemptions N       preemption bound (default 2)\n"
        "  --crash-every N       fork a crash image at every Nth\n"
        "                        explored fence (default 0 = off)\n"
        "  --crash-policy P      dropall|random|torn (default torn)\n"
        "  --seed N              crash-image RNG seed (default 1)\n"
        "  --max-steps N         per-schedule step budget\n"
        "  --trace-dir DIR       write traces of violating schedules\n"
        "  --trace-every N       also trace every Nth schedule\n"
        "  --keep-going          continue past the first violation\n"
        "  --smoke               CI preset: --max-schedules 12000\n"
        "                        --preemptions 3 --crash-every 16\n"
        "                        --min-schedules 10000\n"
        "  --json                machine-readable summary on stdout\n"
        "  --list                print scenario names and exit\n");
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end != nullptr && *end == '\0' && end != s;
}

void
printViolations(const char *prefix,
                const std::vector<fasp::mc::McViolation> &vs)
{
    for (const auto &v : vs)
        std::fprintf(stderr, "%s[%s] %s\n", prefix,
                     fasp::mc::mcViolationKindName(v.kind),
                     v.message.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fasp::mc;
    using fasp::minijson::jsonEscape;

    std::string scenarioName;
    std::string replayPath;
    std::uint64_t minSchedules = 0;
    bool json = false;
    bool smoke = false;
    ExploreOptions opt;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        std::uint64_t n = 0;
        if (std::strcmp(a, "--list") == 0) {
            for (const std::string &s : scenarioNames()) {
                auto sc = makeScenario(s);
                std::printf("%-22s %d threads%s  %s\n", s.c_str(),
                            sc->threadCount(),
                            sc->expectsViolation() ? "  [must-fail]"
                                                   : "",
                            sc->description());
            }
            return 0;
        } else if (std::strcmp(a, "--scenario") == 0) {
            const char *v = next();
            if (v == nullptr)
                return usage();
            scenarioName = v;
        } else if (std::strcmp(a, "--replay") == 0) {
            const char *v = next();
            if (v == nullptr)
                return usage();
            replayPath = v;
        } else if (std::strcmp(a, "--engine") == 0) {
            const char *v = next();
            if (v == nullptr || !parseEngineKind(v, opt.engine))
                return usage();
        } else if (std::strcmp(a, "--max-schedules") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, opt.maxSchedules))
                return usage();
        } else if (std::strcmp(a, "--min-schedules") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, minSchedules))
                return usage();
        } else if (std::strcmp(a, "--preemptions") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, n))
                return usage();
            opt.preemptionBound = static_cast<int>(n);
        } else if (std::strcmp(a, "--crash-every") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, n))
                return usage();
            opt.crashEvery = static_cast<std::uint32_t>(n);
        } else if (std::strcmp(a, "--crash-policy") == 0) {
            const char *v = next();
            if (v == nullptr)
                return usage();
            if (std::strcmp(v, "dropall") == 0)
                opt.crashPolicy = fasp::pm::CrashPolicy::DropAll;
            else if (std::strcmp(v, "random") == 0)
                opt.crashPolicy = fasp::pm::CrashPolicy::RandomLines;
            else if (std::strcmp(v, "torn") == 0)
                opt.crashPolicy = fasp::pm::CrashPolicy::TornLines;
            else
                return usage();
        } else if (std::strcmp(a, "--seed") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, opt.seed))
                return usage();
        } else if (std::strcmp(a, "--max-steps") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, n))
                return usage();
            opt.maxStepsPerRun = n;
        } else if (std::strcmp(a, "--trace-dir") == 0) {
            const char *v = next();
            if (v == nullptr)
                return usage();
            opt.traceDir = v;
        } else if (std::strcmp(a, "--trace-every") == 0) {
            const char *v = next();
            if (v == nullptr || !parseU64(v, n))
                return usage();
            opt.traceEvery = static_cast<std::uint32_t>(n);
        } else if (std::strcmp(a, "--keep-going") == 0) {
            opt.keepGoing = true;
        } else if (std::strcmp(a, "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(a, "--json") == 0) {
            json = true;
        } else {
            std::fprintf(stderr, "fasp-mc: unknown option %s\n", a);
            return usage();
        }
    }

    if (smoke) {
        opt.maxSchedules = 12000;
        opt.preemptionBound = 3;
        opt.crashEvery = 16;
        if (minSchedules == 0)
            minSchedules = 10000;
    }

    // --- Replay mode ----------------------------------------------------
    if (!replayPath.empty()) {
        auto tr = readTrace(replayPath);
        if (!tr.isOk()) {
            std::fprintf(stderr, "fasp-mc: %s: %s\n",
                         replayPath.c_str(),
                         tr.status().toString().c_str());
            return 2;
        }
        const TraceFile &t = tr.value();
        auto scenario = makeScenario(t.scenario);
        if (scenario == nullptr) {
            std::fprintf(stderr,
                         "fasp-mc: trace names unknown scenario %s\n",
                         t.scenario.c_str());
            return 2;
        }
        ExploreOptions ropt;
        if (!parseEngineKind(t.engine, ropt.engine)) {
            std::fprintf(stderr,
                         "fasp-mc: trace names unknown engine %s\n",
                         t.engine.c_str());
            return 2;
        }
        ropt.seed = t.seed;
        ropt.crashEvery = t.crashEvery;
        ropt.crashPolicy =
            static_cast<fasp::pm::CrashPolicy>(t.crashPolicy);
        ropt.maxStepsPerRun = opt.maxStepsPerRun;

        Explorer ex(*scenario, ropt);
        RunResult rr = ex.replay(t);
        std::fprintf(stderr,
                     "fasp-mc: replayed %s schedule %llu: %zu steps, "
                     "%zu violation(s)\n",
                     t.scenario.c_str(),
                     static_cast<unsigned long long>(t.scheduleIndex),
                     rr.steps.size(), rr.violations.size());
        printViolations("  ", rr.violations);
        // A bug-fixture trace reproducing its violation is success.
        if (scenario->expectsViolation())
            return rr.violations.empty() ? 1 : 0;
        return rr.violations.empty() ? 0 : 1;
    }

    // --- Explore mode ---------------------------------------------------
    if (scenarioName.empty())
        return usage();
    auto scenario = makeScenario(scenarioName);
    if (scenario == nullptr) {
        std::fprintf(stderr,
                     "fasp-mc: unknown scenario %s (--list shows "
                     "all)\n",
                     scenarioName.c_str());
        return 2;
    }
    if (scenario->expectsViolation())
        opt.keepGoing = false; // stop at the first reproduction

    Explorer ex(*scenario, opt);
    ExploreResult res = ex.explore();

    bool tooFew = res.schedules < minSchedules && res.exhausted == false;
    bool violated = !res.failures.empty();
    bool expected = scenario->expectsViolation();
    bool fail = expected ? !violated : violated;

    if (json) {
        std::string out = "{\"scenario\":\"" +
                          jsonEscape(scenarioName) + "\"";
        out += ",\"engine\":\"";
        out += fasp::core::engineKindName(opt.engine);
        out += "\"";
        out += ",\"schedules\":" + std::to_string(res.schedules);
        out += ",\"total_steps\":" + std::to_string(res.totalSteps);
        out += ",\"crash_forks\":" + std::to_string(res.crashForks);
        out += ",\"max_depth\":" + std::to_string(res.maxDepth);
        out += ",\"exhausted\":";
        out += res.exhausted ? "true" : "false";
        out += ",\"expects_violation\":";
        out += expected ? "true" : "false";
        out += ",\"failures\":[";
        for (std::size_t i = 0; i < res.failures.size(); ++i) {
            const ScheduleFailure &f = res.failures[i];
            if (i)
                out += ",";
            out += "{\"schedule\":" + std::to_string(f.scheduleIndex);
            out += ",\"trace\":\"" + jsonEscape(f.tracePath) + "\"";
            out += ",\"violations\":[";
            for (std::size_t j = 0; j < f.violations.size(); ++j) {
                if (j)
                    out += ",";
                out += "{\"kind\":\"";
                out += mcViolationKindName(f.violations[j].kind);
                out += "\",\"message\":\"" +
                       jsonEscape(f.violations[j].message) + "\"}";
            }
            out += "]}";
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
    } else {
        std::fprintf(
            stderr,
            "fasp-mc: %s on %s: %llu schedules (%s), %llu steps, "
            "%llu crash forks, max depth %llu, %zu failing "
            "schedule(s)\n",
            scenarioName.c_str(), fasp::core::engineKindName(opt.engine),
            static_cast<unsigned long long>(res.schedules),
            res.exhausted ? "exhausted" : "budget",
            static_cast<unsigned long long>(res.totalSteps),
            static_cast<unsigned long long>(res.crashForks),
            static_cast<unsigned long long>(res.maxDepth),
            res.failures.size());
        for (const ScheduleFailure &f : res.failures) {
            std::fprintf(stderr, "  schedule %llu%s%s:\n",
                         static_cast<unsigned long long>(
                             f.scheduleIndex),
                         f.tracePath.empty() ? "" : " trace ",
                         f.tracePath.c_str());
            printViolations("    ", f.violations);
        }
    }

    if (tooFew) {
        std::fprintf(stderr,
                     "fasp-mc: coverage collapsed: %llu schedules "
                     "explored, %llu required (interception points "
                     "missing?)\n",
                     static_cast<unsigned long long>(res.schedules),
                     static_cast<unsigned long long>(minSchedules));
        return 1;
    }
    if (fail && expected)
        std::fprintf(stderr,
                     "fasp-mc: seeded bug NOT found within budget — "
                     "the checker has gone blind\n");
    return fail ? 1 : 0;
}
