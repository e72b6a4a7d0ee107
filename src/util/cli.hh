/**
 * @file
 * Declarative command-line flags for the drivers: each driver lists
 * its flags once, as a table of Flag entries bound to the option
 * fields they set, and the same table parses argv and renders --help.
 * Parsing is strict: the whole token must parse, numbers must be
 * finite and inside the flag's inclusive range, and unknown flags,
 * stray arguments and missing values are errors, each a FatalError
 * naming the flag and the offending text.
 */

#ifndef CRYOWIRE_UTIL_CLI_HH
#define CRYOWIRE_UTIL_CLI_HH

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/diag.hh"
#include "util/json.hh"

namespace cryo::cli
{

/** All of @p text as a T - a decimal integer (with a '-' only for a
 * signed T) or, for a floating T, a decimal number - and nothing
 * else: no blanks, no '+', no hex, no trailing text, no overflow. */
template <class T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

/** parseNumber<double>(), finite values only. */
std::optional<double> parseFinite(std::string_view text);

/** One entry of a flag table: a factory below, or built directly
 * for a value with its own syntax (--shard I/N). */
struct Flag
{
    std::string name;        ///< "--jobs"
    std::string metavar;     ///< "N"; empty for a switch
    std::string kind;        ///< kind and range, as --help shows it
    std::string defaultText; ///< default, as --help shows it
    std::string help;        ///< pre-wrapped at 70 columns
    /** Stores one value ("" for a switch); throws FatalError with
     * the reason when the text is not one. */
    std::function<void(const std::string &)> apply;
    /** 0 = switch, 1 = one value, N > 1 = N or more values (the
     * value plus every following token not starting with '-'). */
    std::size_t arity = 1;

    /** Show @p text as the default (one resolved at run time). */
    Flag defaultsTo(std::string text) &&;
};

/** An on/off flag: sets *target to true. */
Flag toggle(std::string name, bool *target, std::string help);

Flag text(std::string name, std::string metavar, std::string *target,
          std::string help);

/** Repeatable; each value is also split on commas. */
Flag list(std::string name, std::string metavar,
          std::vector<std::string> *target, std::string help);

/** @p atLeast or more values in one go ("--merge OUT IN..."). */
Flag operands(std::string name, std::string metavar,
              std::vector<std::string> *target, std::size_t atLeast,
              std::string help);

/** A number in [lo, hi]: an integer for an integral T, else a
 * decimal (the finite bounds also reject NaN and infinities). */
template <class T>
Flag
number(std::string name, std::string metavar, T *target,
       std::type_identity_t<T> lo, std::type_identity_t<T> hi,
       std::string help)
{
    constexpr bool real = std::is_floating_point_v<T>;
    const auto show = [](T v) {
        if constexpr (real)
            return formatDouble(v);
        else
            return std::to_string(v);
    };
    const std::string kind = std::string(real ? "a finite number"
                                              : "an integer") +
                             " in [" + show(lo) + ", " + show(hi) + "]";
    return {std::move(name), std::move(metavar), kind, show(*target),
            std::move(help), [target, lo, hi, kind](const std::string &v) {
                const std::optional<T> x = parseNumber<T>(v);
                fatalIf(!x || !(*x >= lo && *x <= hi), "want " + kind);
                *target = *x;
            }};
}

/** One of @p choices, verbatim. */
Flag choice(std::string name, std::string metavar, std::string *target,
            std::vector<std::string> choices, std::string help);

/** A driver's whole command line. */
struct Spec
{
    std::string program; ///< "cryowire_sweep", prefixes every error
    std::string about;   ///< usage lines and description, pre-wrapped
    std::vector<Flag> flags;
    /** Cross-flag rule run after parsing ("need --spec or --merge");
     * throws FatalError. */
    std::function<void()> check = nullptr;
};

/** The --help text: about, then every flag's kind, default, help. */
std::string usage(const Spec &spec);

/** Parse @p argv into the table's targets; false after --help or
 * -h. Throws FatalError on any usage error. */
bool parse(const Spec &spec, int argc, const char *const *argv);

/** parse() for a main(): the exit status after --help (0, usage on
 * stdout, or 1 as flushStdout() says when stdout cannot take it) or
 * a usage error (2, message on stderr); nothing when the command line
 * is good. */
std::optional<int> parseForMain(const Spec &spec, int argc,
                                const char *const *argv);

/** parseForMain(), then @p run for the exit status; a FatalError out
 * of @p run prints "<program>: <what>" and exits 1, and so does a
 * standard output that cannot be written ("cannot write standard
 * output"), flushed once @p run returns. */
int runDriver(const Spec &spec, int argc, const char *const *argv,
              const std::function<int()> &run);

/** Flush standard output: @p status when everything written to it
 * arrived, else 1 after "<program>: cannot write standard output"
 * on stderr. */
int flushStdout(const std::string &program, int status);

} // namespace cryo::cli

#endif // CRYOWIRE_UTIL_CLI_HH
