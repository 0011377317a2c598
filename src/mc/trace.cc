#include "mc/trace.h"

#include <cstring>
#include <fstream>

namespace fasp::mc {

namespace {

/** The version digits change whenever the HookOp values a step stores
 *  are renumbered, so an older trace is rejected, not misreplayed. */
constexpr char kMagic[8] = {'F', 'A', 'S', 'P', 'M', 'C', '0', '2'};

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
getBytes(const std::string &in, std::size_t &pos, void *dst,
         std::size_t len)
{
    if (pos + len > in.size())
        return false;
    std::memcpy(dst, in.data() + pos, len);
    pos += len;
    return true;
}

bool
getU32(const std::string &in, std::size_t &pos, std::uint32_t &v)
{
    std::uint8_t b[4];
    if (!getBytes(in, pos, b, 4))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
}

bool
getU64(const std::string &in, std::size_t &pos, std::uint64_t &v)
{
    std::uint8_t b[8];
    if (!getBytes(in, pos, b, 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
}

bool
getString(const std::string &in, std::size_t &pos, std::string &s)
{
    std::uint32_t len;
    if (!getU32(in, pos, len) || pos + len > in.size())
        return false;
    s.assign(in, pos, len);
    pos += len;
    return true;
}

} // namespace

std::vector<TraceStep>
traceStepsFromRun(const RunResult &run)
{
    std::vector<TraceStep> out;
    out.reserve(run.steps.size());
    for (const StepRecord &rec : run.steps) {
        TraceStep ts;
        ts.chosen = rec.chosen;
        ts.op = static_cast<std::uint8_t>(rec.pending[rec.chosen].op);
        ts.flags = rec.forced ? 1 : 0;
        ts.token = rec.pending[rec.chosen].token;
        out.push_back(ts);
    }
    return out;
}

Status
writeTrace(const std::string &path, const TraceFile &trace)
{
    std::string buf;
    buf.append(kMagic, sizeof(kMagic));
    putU32(buf, static_cast<std::uint32_t>(trace.scenario.size()));
    buf += trace.scenario;
    putU32(buf, static_cast<std::uint32_t>(trace.engine.size()));
    buf += trace.engine;
    putU64(buf, trace.seed);
    putU32(buf, trace.crashEvery);
    buf.push_back(static_cast<char>(trace.crashPolicy));
    putU64(buf, trace.scheduleIndex);
    putU32(buf, static_cast<std::uint32_t>(trace.steps.size()));
    for (const TraceStep &s : trace.steps) {
        buf.push_back(static_cast<char>(s.chosen));
        buf.push_back(static_cast<char>(s.op));
        buf.push_back(static_cast<char>(s.flags));
        putU32(buf, s.token);
    }

    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return Status(StatusCode::IoError,
                      "cannot open trace for writing: " + path);
    f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    f.flush();
    if (!f)
        return Status(StatusCode::IoError,
                      "short write to trace: " + path);
    return Status::ok();
}

Result<TraceFile>
readTrace(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return Status(StatusCode::IoError,
                      "cannot open trace: " + path);
    std::string buf((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());

    std::size_t pos = 0;
    char magic[8];
    if (!getBytes(buf, pos, magic, 8) ||
        std::memcmp(magic, kMagic, 8) != 0) {
        return Status(StatusCode::ParseError,
                      "not a fasp-mc trace: " + path);
    }

    TraceFile t;
    std::uint32_t nsteps = 0;
    std::uint8_t policy = 0;
    bool ok = getString(buf, pos, t.scenario) &&
              getString(buf, pos, t.engine) &&
              getU64(buf, pos, t.seed) &&
              getU32(buf, pos, t.crashEvery) &&
              getBytes(buf, pos, &policy, 1) &&
              getU64(buf, pos, t.scheduleIndex) &&
              getU32(buf, pos, nsteps);
    if (!ok)
        return Status(StatusCode::ParseError,
                      "truncated trace header: " + path);
    t.crashPolicy = policy;
    t.steps.reserve(nsteps);
    for (std::uint32_t i = 0; i < nsteps; ++i) {
        TraceStep s;
        std::uint8_t raw[3];
        if (!getBytes(buf, pos, raw, 3) || !getU32(buf, pos, s.token))
            return Status(StatusCode::ParseError,
                          "truncated trace step " + std::to_string(i) +
                              ": " + path);
        s.chosen = raw[0];
        s.op = raw[1];
        s.flags = raw[2];
        t.steps.push_back(s);
    }
    if (pos != buf.size())
        return Status(StatusCode::ParseError,
                      "trailing bytes in trace: " + path);
    return t;
}

} // namespace fasp::mc
