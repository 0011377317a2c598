/**
 * @file
 * Deterministic exporter demo: builds a fixed registry / phase ledger /
 * span profiler and writes the JSON and chrome://tracing exports to
 * the two paths given on the command line. A ctest diffs
 * the output against golden files (tests/obs/golden/), so any
 * unintentional change to an export schema fails the build's test
 * suite.
 *
 * Usage: obs_export_demo <out.json> <out.trace.json>
 */

#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pm/phase.h"

using namespace fasp;

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: obs_export_demo <out.json> "
                             "<out.trace.json>\n");
        return 2;
    }

    obs::MetricsRegistry registry;
    registry.counter("core.tx.commits").add(120);
    registry.counter("core.pcas.commits").add(90);
    registry.counter("core.pcas.fallbacks").add(3);
    registry.gauge("bench.clients").set(4);
    obs::Histogram &hist = registry.histogram("bench.txn_ns.FAST");
    for (std::uint64_t v : {0u, 1u, 5u, 5u, 900u, 1500u, 70000u})
        hist.record(v);

    // PM-ledger fixture: one window per engine, billed as PmDevice bills
    // (each event to the innermost phase and the current site tag).
    auto billAt = [](pm::Component comp, const char *site, auto &&bill) {
        pm::PhaseScope phase(comp);
        const char *prev = pm::setThreadSite(site);
        bill();
        pm::setThreadSite(prev);
    };
    pm::PhaseTracker fast_window;
    fast_window.start();
    billAt(pm::Component::LogFlush, "SlotHeaderLog::commit", [] {
        pm::billStore(64);
        pm::billFlush(750);
        pm::billFence(0);
    });
    billAt(pm::Component::Atomic64BWrite, "FaspTransaction::commitInPlace",
           [] { pm::billFlush(300); });
    billAt(pm::Component::Checkpoint, nullptr, [] { pm::billStore(128); });
    fast_window.stop();

    pm::PhaseTracker nvwal_window;
    nvwal_window.start();
    billAt(pm::Component::LogFlush, "NvwalLog::commitTx", [] {
        pm::billFlush(0);
        pm::billFence(0);
    });
    billAt(pm::Component::HeapMgmt, "NvwalLog::commitTx",
           [] { pm::billReadMiss(1200); });
    nvwal_window.stop();

    obs::PhaseLedger ledger;
    ledger.fold("FAST", fast_window);
    ledger.fold("FAST", fast_window); // latency sweep: accumulates
    ledger.fold("NVWAL", nvwal_window);

    obs::RecoveryLedger recovery;
    obs::RecoveryLedger::Sample fast_rec;
    fast_rec.phaseNs = {4200, 0, 0, 300};
    fast_rec.pagesScanned = 12;
    fast_rec.tornRecords = 1;
    recovery.record("FAST", fast_rec);
    obs::RecoveryLedger::Sample nvwal_rec;
    nvwal_rec.phaseNs = {2100, 36000, 900, 0};
    nvwal_rec.pagesScanned = 8;
    nvwal_rec.recordsReplayed = 5;
    nvwal_rec.recordsDiscarded = 2;
    recovery.record("NVWAL", nvwal_rec);
    recovery.record("NVWAL", nvwal_rec); // second pass accumulates

    // Span-profiler fixture (schema v4+ sections): two FAST spans, one
    // NVWAL span, a contended latch slot, and a few hot pages.
    obs::SpanProfiler profiler;
    obs::TxSpan fast_fast;
    fast_fast.txId = 6;
    fast_fast.engine = "FAST";
    fast_fast.engineCode = 1;
    fast_fast.committed = true;
    fast_fast.commitPath = "in-place";
    fast_fast.wallNs = 4000;
    fast_fast.modelNs = 750;
    fast_fast.phaseNs[0] = 2500; // untagged
    fast_fast.phaseNs[static_cast<std::size_t>(
        pm::Component::Atomic64BWrite)] = 1500;
    fast_fast.flushes = 1;
    fast_fast.fences = 1;
    fast_fast.pageAccesses = 2;
    fast_fast.pcasAttempts = 1;
    profiler.recordSpan(fast_fast);

    obs::TxSpan fast_slow;
    fast_slow.txId = 7;
    fast_slow.engine = "FAST";
    fast_slow.engineCode = 1;
    fast_slow.committed = true;
    fast_slow.commitPath = "logged";
    fast_slow.wallNs = 90000;
    fast_slow.modelNs = 52000;
    fast_slow.phaseNs[0] = 8000;
    fast_slow.phaseNs[static_cast<std::size_t>(
        pm::Component::LogFlush)] = 70000;
    fast_slow.phaseNs[static_cast<std::size_t>(
        pm::Component::Checkpoint)] = 12000;
    fast_slow.latchWaits = 2;
    fast_slow.latchWaitNs = 3000;
    fast_slow.hotLatchSlot = 17;
    fast_slow.hotLatchWaitNs = 2000;
    fast_slow.flushes = 9;
    fast_slow.fences = 3;
    fast_slow.walAppends = 2;
    fast_slow.splits = 1;
    fast_slow.pageAccesses = 5;
    fast_slow.pageDirty = 3;
    profiler.recordSpan(fast_slow);

    obs::TxSpan nvwal_span;
    nvwal_span.txId = 9;
    nvwal_span.engine = "NVWAL";
    nvwal_span.engineCode = 3;
    nvwal_span.committed = false;
    nvwal_span.wallNs = 1200;
    nvwal_span.phaseNs[0] = 1200;
    nvwal_span.pageAccesses = 1;
    profiler.recordSpan(nvwal_span);

    profiler.recordLatchWait(17, 2000, false);
    profiler.recordLatchWait(17, 1000, false);
    profiler.recordLatchWait(40, 500, true);
    for (int i = 0; i < 6; ++i)
        profiler.recordPageAccess(3, i % 2 == 0);
    profiler.recordPageAccess(11, true);
    profiler.recordPageConflict(3);

    std::string json = obs::exportJson("obs_export_demo", registry,
                                       ledger, recovery, &profiler);

    // Chrome-trace fixture: a profiler of its own, so its spans can
    // carry distinct begin timestamps and come from two thread rings
    // without perturbing the JSON golden above.
    obs::SpanProfiler timeline;
    obs::TxSpan first = fast_fast;
    first.beginNs = 1000000;
    timeline.recordSpan(first);
    obs::TxSpan later = fast_slow;
    later.beginNs = 1250500;
    timeline.recordSpan(later);
    std::thread other([&timeline, nvwal_span] {
        obs::TxSpan concurrent = nvwal_span;
        concurrent.beginNs = 1100000;
        timeline.recordSpan(concurrent);
    });
    other.join();
    std::string trace = obs::exportChromeTrace(timeline);

    std::ofstream jout(argv[1], std::ios::binary | std::ios::trunc);
    jout << json;
    std::ofstream tout(argv[2], std::ios::binary | std::ios::trunc);
    tout << trace;
    if (!jout.good() || !tout.good()) {
        std::fprintf(stderr, "obs_export_demo: write failed\n");
        return 1;
    }
    return 0;
}
