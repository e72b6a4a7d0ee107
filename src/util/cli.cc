#include "cli.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "diag.hh"

namespace cryo::cli
{

namespace
{

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

} // namespace

std::optional<double>
parseFinite(std::string_view text)
{
    const std::optional<double> v = parseNumber<double>(text);
    return v && std::isfinite(*v) ? v : std::nullopt;
}

Flag
Flag::defaultsTo(std::string text) &&
{
    defaultText = std::move(text);
    return std::move(*this);
}

Flag
toggle(std::string name, bool *target, std::string help)
{
    return {std::move(name), "", "switch", *target ? "on" : "off",
            std::move(help),
            [target](const std::string &) { *target = true; }, 0};
}

Flag
text(std::string name, std::string metavar, std::string *target,
     std::string help)
{
    return {std::move(name), std::move(metavar), "string",
            target->empty() ? "none" : quoted(*target), std::move(help),
            [target](const std::string &v) { *target = v; }};
}

Flag
list(std::string name, std::string metavar,
     std::vector<std::string> *target, std::string help)
{
    return {std::move(name), std::move(metavar),
            "list, repeatable and comma-separated", "none",
            std::move(help), [target](const std::string &v) {
                std::istringstream items{v};
                for (std::string item; std::getline(items, item, ',');) {
                    if (!item.empty())
                        target->push_back(item);
                }
            }};
}

Flag
operands(std::string name, std::string metavar,
         std::vector<std::string> *target, std::size_t atLeast,
         std::string help)
{
    return {std::move(name), std::move(metavar),
            std::to_string(atLeast) + " or more values", "none",
            std::move(help),
            [target](const std::string &v) { target->push_back(v); },
            atLeast};
}

Flag
choice(std::string name, std::string metavar, std::string *target,
       std::vector<std::string> choices, std::string help)
{
    std::string kind = "one of ";
    for (std::size_t i = 0; i < choices.size(); ++i)
        kind += (i > 0 ? "|" : "") + choices[i];
    auto apply = [target, choices = std::move(choices),
                  kind](const std::string &v) {
        fatalIf(std::find(choices.begin(), choices.end(), v) ==
                    choices.end(),
                "want " + kind);
        *target = v;
    };
    return {std::move(name), std::move(metavar), kind, *target,
            std::move(help), std::move(apply)};
}

std::string
usage(const Spec &spec)
{
    std::string out = spec.about + "\noptions:\n";
    for (const Flag &f : spec.flags) {
        std::string help = "      " + f.help + "\n";
        for (std::size_t at = help.find('\n'); at + 1 < help.size();
             at = help.find('\n', at + 1))
            help.insert(at + 1, "      ");
        out += "  " + f.name + (f.metavar.empty() ? "" : " ") + f.metavar +
               ": " + f.kind + "; default " + f.defaultText + "\n" + help;
    }
    return out + "  --help, -h\n      print this text and exit\n";
}

bool
parse(const Spec &spec, int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return false;
        const auto flag =
            std::find_if(spec.flags.begin(), spec.flags.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (flag == spec.flags.end()) {
            fatal(arg.starts_with('-')
                      ? arg + ": unknown flag"
                      : quoted(arg) + ": unexpected argument");
        }
        if (flag->arity > 0 &&
            (i + 1 >= argc ||
             std::string_view{argv[i + 1]}.starts_with("--")))
            fatal(flag->name + ": missing value " + flag->metavar);
        std::vector<std::string> values{flag->arity > 0 ? argv[++i] : ""};
        while (flag->arity > 1 && i + 1 < argc && argv[i + 1][0] != '-')
            values.emplace_back(argv[++i]);
        if (values.size() < flag->arity) {
            fatal(flag->name + ": want " + flag->metavar + ", " +
                  flag->kind + ", got " + quoted(values.front()));
        }
        for (const std::string &v : values) {
            try {
                flag->apply(v);
            } catch (const FatalError &e) {
                fatal(flag->name + ": bad value " + quoted(v) + " (" +
                      e.message() + ")");
            }
        }
    }
    if (spec.check)
        spec.check();
    return true;
}

std::optional<int>
parseForMain(const Spec &spec, int argc, const char *const *argv)
{
    try {
        if (parse(spec, argc, argv))
            return std::nullopt;
        std::fputs(usage(spec).c_str(), stdout);
        return flushStdout(spec.program, 0);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\nrun '%s --help' for usage\n",
                     spec.program.c_str(), e.message().c_str(),
                     spec.program.c_str());
        return 2;
    }
}

int
runDriver(const Spec &spec, int argc, const char *const *argv,
          const std::function<int()> &run)
{
    if (const std::optional<int> status = parseForMain(spec, argc, argv))
        return *status;
    int status = 1;
    try {
        status = run();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", spec.program.c_str(), e.what());
    }
    return flushStdout(spec.program, status);
}

int
flushStdout(const std::string &program, int status)
{
    // std::cout shares stdout's buffer, so this covers both; exit()
    // would flush it too, but would drop a failure.
    if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
        std::fprintf(stderr, "%s: cannot write standard output\n",
                     program.c_str());
        return 1;
    }
    return status;
}

} // namespace cryo::cli
