/**
 * @file
 * Quickstart: open a FAST database on emulated persistent memory, run
 * some SQL, and peek at the engine statistics that make the paper's
 * point — single-record transactions commit in place with a handful of
 * flushes instead of writing a log.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "db/database.h"
#include "pm/device.h"

using namespace fasp;

int
main()
{
    // 1. An emulated PM device: 64 MiB, 300ns read / 300ns write.
    pm::PmConfig pm_cfg;
    pm_cfg.size = 64u << 20;
    pm_cfg.latency = pm::LatencyModel::of(300, 300);
    pm::PmDevice device(pm_cfg);

    // 2. A database using FAST (failure-atomic slotted paging with
    //    in-place commit). Swap the kind for EngineKind::Nvwal or
    //    EngineKind::Journal to compare engines on the same API.
    core::EngineConfig engine_cfg;
    engine_cfg.kind = core::EngineKind::Fast;
    auto db = db::Database::open(device, engine_cfg, /*format=*/true);
    if (!db.isOk()) {
        std::fprintf(stderr, "open failed: %s\n",
                     db.status().toString().c_str());
        return 1;
    }
    db::Database &database = **db;

    // 3. Ordinary SQL. Each statement outside BEGIN/COMMIT is its own
    //    failure-atomic transaction.
    auto run = [&](const char *sql) {
        auto result = database.exec(sql);
        if (!result.isOk()) {
            std::fprintf(stderr, "%s\n  -> %s\n", sql,
                         result.status().toString().c_str());
            std::exit(1);
        }
        return std::move(*result);
    };

    run("CREATE TABLE contacts (id INTEGER PRIMARY KEY, name TEXT, "
        "phone TEXT)");
    run("INSERT INTO contacts VALUES (1, 'Ada Lovelace', '+44-1815')");
    run("INSERT INTO contacts VALUES (2, 'Alan Turing', '+44-1912')");
    run("INSERT INTO contacts VALUES (3, 'Grace Hopper', '+1-1906')");
    run("UPDATE contacts SET phone = '+1-2026' WHERE id = 3");

    auto rows = run("SELECT * FROM contacts ORDER BY name");
    std::printf("%s", rows.toString().c_str());

    // 4. The paper's point, visible in the stats: the three INSERTs
    //    and the UPDATE were single-page transactions -> in-place
    //    commits (one 8-byte PCAS header publish + one clflush
    //    each), no log.
    const core::EngineStats &stats = database.engine().stats();
    std::printf("\ncommitted txns: %llu  in-place commits: %llu  "
                "logged commits: %llu\n",
                (unsigned long long)stats.txCommitted,
                (unsigned long long)stats.inPlaceCommits,
                (unsigned long long)stats.logCommits);
    std::printf("PM clflushes issued: %llu\n",
                (unsigned long long)device.stats().clflushes);
    return 0;
}
