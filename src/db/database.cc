#include "db/database.h"

#include "db/parser.h"
#include "pm/device.h"
#include "pm/phase.h"

namespace fasp::db {

Result<std::unique_ptr<Database>>
Database::open(pm::PmDevice &device, const core::EngineConfig &config,
               bool format)
{
    auto engine = core::Engine::create(device, config, format);
    if (!engine.isOk())
        return engine.status();
    std::unique_ptr<Database> db(new Database(std::move(*engine)));
    if (format)
        FASP_RETURN_IF_ERROR(db->catalog_.initFresh());
    return db;
}

Result<ResultSet>
Database::execScript(const std::string &script)
{
    ResultSet last;
    std::size_t start = 0;
    bool in_string = false;
    for (std::size_t i = 0; i <= script.size(); ++i) {
        bool at_end = i == script.size();
        if (!at_end && script[i] == '\'')
            in_string = !in_string;
        if (!at_end && (script[i] != ';' || in_string))
            continue;
        std::string stmt = script.substr(start, i - start);
        start = i + 1;
        // Skip empty / whitespace-only fragments.
        if (stmt.find_first_not_of(" \t\r\n") == std::string::npos)
            continue;
        auto result = exec(stmt);
        if (!result.isOk())
            return result.status();
        last = std::move(*result);
    }
    return last;
}

Result<ResultSet>
Database::exec(const std::string &sql)
{
    // SQL front-end time: parsing (Figures 11-12 measure the full
    // query path including this fixed software overhead).
    Statement stmt{};
    {
        pm::PhaseScope phase(pm::Component::SqlFrontend);
        auto parsed = parseStatement(sql);
        if (!parsed.isOk())
            return parsed.status();
        stmt = std::move(*parsed);
    }

    switch (stmt.kind) {
      case StmtKind::Begin:
        if (current_)
            return statusInvalid("already in a transaction");
        current_ = engine_->begin();
        return ResultSet{};

      case StmtKind::Commit: {
        if (!current_)
            return statusInvalid("no transaction to commit");
        Status status = current_->commit();
        current_.reset();
        if (!status.isOk()) {
            catalog_.invalidate();
            return status;
        }
        return ResultSet{};
      }

      case StmtKind::Rollback:
        if (!current_)
            return statusInvalid("no transaction to roll back");
        current_->rollback();
        current_.reset();
        catalog_.invalidate(); // DDL inside the tx may have been undone
        return ResultSet{};

      default:
        break;
    }

    if (current_) {
        // Inside an explicit transaction: execute and leave the commit
        // to the user. Errors do not auto-rollback (SQLite keeps the
        // transaction open too).
        return executor_.execute(*current_, stmt);
    }

    // Auto-commit statement: its own transaction.
    auto tx = engine_->begin();
    auto result = executor_.execute(*tx, stmt);
    if (!result.isOk()) {
        tx->rollback();
        catalog_.invalidate();
        return result;
    }
    Status status = tx->commit();
    if (!status.isOk()) {
        catalog_.invalidate();
        return status;
    }
    return result;
}

} // namespace fasp::db
