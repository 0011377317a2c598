/**
 * @file
 * Lightweight Status / Result error-handling types.
 *
 * The library reports recoverable conditions (page full, key missing,
 * transaction aborted, ...) through Status values rather than exceptions.
 * Exceptions are reserved for the crash-injection machinery (see
 * pm/crash.h) and for programming errors (faspPanic).
 */

#ifndef FASP_COMMON_STATUS_H
#define FASP_COMMON_STATUS_H

#include <string>
#include <utility>
#include <variant>

namespace fasp {

/** Category of a recoverable error. */
enum class StatusCode {
    Ok,
    NotFound,      //!< key / table / page absent
    AlreadyExists, //!< duplicate key or table
    PageFull,      //!< record does not fit even after defragmentation
    LogFull,       //!< persistent log region exhausted
    NoSpace,       //!< PM device / page allocator exhausted
    Corruption,    //!< invariant violated in persistent state
    InvalidArgument,
    TxConflict,    //!< transaction aborted (e.g. PCAS retries exhausted)
    NotSupported,
    IoError,
    ParseError,    //!< SQL syntax error
};

/** Human-readable name of a StatusCode. */
const char *statusCodeName(StatusCode code);

/**
 * Value-semantic status: either Ok or a code plus message.
 */
class Status
{
  public:
    /** Construct an Ok status. */
    Status() : code_(StatusCode::Ok) {}

    /** Construct a status with @p code and optional @p message. */
    explicit Status(StatusCode code, std::string message = {})
        : code_(code), message_(std::move(message))
    {}

    static Status ok() { return Status(); }

    bool isOk() const { return code_ == StatusCode::Ok; }
    explicit operator bool() const { return isOk(); }

    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "Ok" or "<CodeName>: <message>". */
    std::string toString() const;

    bool operator==(const Status &other) const
    {
        return code_ == other.code_;
    }

  private:
    StatusCode code_;
    std::string message_;
};

/** Shorthand constructors mirroring the common codes. */
inline Status
statusNotFound(std::string msg = {})
{
    return Status(StatusCode::NotFound, std::move(msg));
}

inline Status
statusAlreadyExists(std::string msg = {})
{
    return Status(StatusCode::AlreadyExists, std::move(msg));
}

inline Status
statusPageFull(std::string msg = {})
{
    return Status(StatusCode::PageFull, std::move(msg));
}

inline Status
statusCorruption(std::string msg = {})
{
    return Status(StatusCode::Corruption, std::move(msg));
}

inline Status
statusInvalid(std::string msg = {})
{
    return Status(StatusCode::InvalidArgument, std::move(msg));
}

inline Status
statusNoSpace(std::string msg = {})
{
    return Status(StatusCode::NoSpace, std::move(msg));
}

inline Status
statusParseError(std::string msg = {})
{
    return Status(StatusCode::ParseError, std::move(msg));
}

/**
 * Result<T>: either a value or an error Status. A minimal expected<T>
 * sufficient for this library (C++23 std::expected is unavailable).
 */
template <typename T>
class Result
{
  public:
    /** Implicit from value. */
    Result(T value) : state_(std::move(value)) {}

    /** Implicit from error status; must not be Ok. */
    Result(Status status) : state_(std::move(status)) {}

    bool isOk() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return isOk(); }

    /** Value access; undefined if !isOk(). */
    T &value() { return std::get<T>(state_); }
    const T &value() const { return std::get<T>(state_); }

    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }
    T &operator*() { return value(); }
    const T &operator*() const { return value(); }

    /** Error access; Ok status if this holds a value. */
    Status status() const
    {
        if (isOk())
            return Status::ok();
        return std::get<Status>(state_);
    }

    /** Move the value out, or return @p fallback on error. */
    T valueOr(T fallback) &&
    {
        if (isOk())
            return std::move(value());
        return fallback;
    }

  private:
    std::variant<T, Status> state_;
};

/** Propagate a non-Ok Status from an expression. */
#define FASP_RETURN_IF_ERROR(expr)                                          \
    do {                                                                    \
        ::fasp::Status fasp_status_ = (expr);                               \
        if (!fasp_status_.isOk())                                           \
            return fasp_status_;                                            \
    } while (0)

/** Token pasting with macro expansion (for unique local names). */
#define FASP_CONCAT_INNER(a, b) a##b
#define FASP_CONCAT(a, b) FASP_CONCAT_INNER(a, b)

/** Assign a Result's value to `lhs` or propagate its error Status. */
#define FASP_ASSIGN_OR_RETURN(lhs, expr)                                    \
    auto FASP_CONCAT(fasp_result_, __LINE__) = (expr);                      \
    if (!FASP_CONCAT(fasp_result_, __LINE__).isOk())                        \
        return FASP_CONCAT(fasp_result_, __LINE__).status();                \
    lhs = std::move(*FASP_CONCAT(fasp_result_, __LINE__))

} // namespace fasp

#endif // FASP_COMMON_STATUS_H
