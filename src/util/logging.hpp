/**
 * @file
 * Error / status reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated; this is a bug in Hermes.
 * fatal()  — the user asked for something impossible (bad configuration);
 *            terminate with a clean error.
 * warn()   — something works but is suspicious or approximated.
 * inform() — plain status output.
 * debug()  — chatty diagnostics; compiled out of Release builds unless
 *            HERMES_ENABLE_DEBUG_LOG is defined, and hidden at runtime
 *            unless the log level is Debug (HERMES_LOG_LEVEL=debug).
 *
 * Each message is emitted as a single write under a mutex, so lines
 * from concurrent threads (node workers, clients) never interleave.
 */

#pragma once

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hermes {
namespace util {

/** Severity classes understood by logMessage(), least severe first. */
enum class LogLevel {
    Debug,
    Inform,
    Warn,
    Fatal,
    Panic,
};

/**
 * Emit a formatted log line to stderr (or stdout for Debug/Inform).
 * Messages below the runtime log level are dropped; Fatal and Panic
 * are always emitted.
 *
 * @param level Severity of the message.
 * @param file  Source file of the call site.
 * @param line  Source line of the call site.
 * @param msg   Fully formatted message text.
 */
void logMessage(LogLevel level, const char *file, int line,
                const std::string &msg);

/** True once warnings have been silenced via setQuiet(). */
bool quietMode();

/** Suppress Inform/Warn output (used by tests and benches). */
void setQuiet(bool quiet);

/**
 * Runtime log threshold: messages with a lower severity are dropped.
 * Initialized from the HERMES_LOG_LEVEL environment variable
 * ("debug" | "info" | "warn"), defaulting to Inform.
 */
LogLevel logLevel();

/** Override the runtime log threshold. */
void setLogLevel(LogLevel level);

namespace detail {

/** Fold a list of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

} // namespace util
} // namespace hermes

/** Internal invariant violated: print and abort (core-dump friendly). */
#define HERMES_PANIC(...)                                                     \
    do {                                                                      \
        ::hermes::util::logMessage(::hermes::util::LogLevel::Panic,           \
            __FILE__, __LINE__, ::hermes::util::detail::concat(__VA_ARGS__)); \
        std::abort();                                                         \
    } while (0)

/** Unrecoverable user error: print and exit(1). */
#define HERMES_FATAL(...)                                                     \
    do {                                                                      \
        ::hermes::util::logMessage(::hermes::util::LogLevel::Fatal,           \
            __FILE__, __LINE__, ::hermes::util::detail::concat(__VA_ARGS__)); \
        std::exit(1);                                                         \
    } while (0)

/** Suspicious but survivable condition. */
#define HERMES_WARN(...)                                                      \
    ::hermes::util::logMessage(::hermes::util::LogLevel::Warn,                \
        __FILE__, __LINE__, ::hermes::util::detail::concat(__VA_ARGS__))

/** Plain status message. */
#define HERMES_INFORM(...)                                                    \
    ::hermes::util::logMessage(::hermes::util::LogLevel::Inform,              \
        __FILE__, __LINE__, ::hermes::util::detail::concat(__VA_ARGS__))

/**
 * Chatty diagnostic, off the hot path by construction: present in debug
 * builds (and Release builds compiled with -DHERMES_ENABLE_DEBUG_LOG),
 * compiled to nothing otherwise. When compiled in, it is still dropped
 * at runtime unless logLevel() == Debug.
 */
#if !defined(NDEBUG) || defined(HERMES_ENABLE_DEBUG_LOG)
#define HERMES_DEBUG(...)                                                     \
    do {                                                                      \
        if (::hermes::util::logLevel() <=                                     \
            ::hermes::util::LogLevel::Debug) {                                \
            ::hermes::util::logMessage(::hermes::util::LogLevel::Debug,       \
                __FILE__, __LINE__,                                           \
                ::hermes::util::detail::concat(__VA_ARGS__));                 \
        }                                                                     \
    } while (0)
#else
#define HERMES_DEBUG(...)                                                     \
    do {                                                                      \
    } while (0)
#endif

/**
 * Precondition that a caller's input can break (a config value, a corpus
 * too small for the requested geometry): throw std::invalid_argument
 * with context. Binaries map it to a clean exit 1 (core::loadOrFatal).
 */
#define HERMES_REQUIRE(cond, ...)                                             \
    do {                                                                      \
        if (!(cond)) {                                                        \
            throw std::invalid_argument(                                      \
                ::hermes::util::detail::concat(__VA_ARGS__));                 \
        }                                                                     \
    } while (0)

/** Cheap always-on assertion that panics with context on failure. */
#define HERMES_ASSERT(cond, ...)                                              \
    do {                                                                      \
        if (!(cond)) {                                                        \
            HERMES_PANIC("assertion failed: " #cond " ", __VA_ARGS__);        \
        }                                                                     \
    } while (0)
