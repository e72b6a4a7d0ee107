#include "failpoint.hh"

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "util/cli.hh"
#include "util/diag.hh"
#include "util/rng.hh"

namespace cryo::failpoint
{

namespace
{

enum class Trigger
{
    kAlways,
    kNth,
    kEvery,
    kProb,
};

/** One armed site: its schedule plus per-site counters. */
struct Site
{
    Trigger trigger = Trigger::kAlways;
    std::uint64_t n = 0;     ///< nth/every operand
    double p = 0.0;          ///< prob operand
    Rng rng{0};              ///< prob's dedicated stream
    ActionKind action = ActionKind::kError;
    std::uint64_t arg = 0;   ///< partial bytes / delay ms
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
};

std::mutex g_mu;
std::map<std::string, Site> &
registry()
{
    static std::map<std::string, Site> sites;
    return sites;
}

/** Parse "name(args)" returning args, or "" for a bare name. */
bool
splitCall(const std::string &text, const std::string &name,
          std::string *args)
{
    if (text == name) {
        args->clear();
        return true;
    }
    if (text.size() > name.size() + 1 &&
        text.compare(0, name.size(), name) == 0 &&
        text[name.size()] == '(' && text.back() == ')') {
        *args = text.substr(name.size() + 1,
                            text.size() - name.size() - 2);
        return true;
    }
    return false;
}

std::uint64_t
parseCount(const std::string &text, const std::string &what)
{
    const auto n = cli::parseNumber<std::uint64_t>(text);
    fatalIf(!n || *n < 1, "failpoint spec: " + what +
                              " wants a positive integer, got \"" +
                              text + "\"");
    return *n;
}

Site
parseSpec(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    fatalIf(colon == std::string::npos,
            "failpoint spec \"" + spec +
                "\": want TRIGGER:ACTION (e.g. nth(2):error)");
    const std::string trigger = spec.substr(0, colon);
    const std::string action = spec.substr(colon + 1);

    Site site;
    std::string args;
    if (splitCall(trigger, "always", &args)) {
        fatalIf(!args.empty(),
                "failpoint spec: \"always\" takes no argument");
        site.trigger = Trigger::kAlways;
    } else if (splitCall(trigger, "nth", &args)) {
        site.trigger = Trigger::kNth;
        site.n = parseCount(args, "nth()");
    } else if (splitCall(trigger, "every", &args)) {
        site.trigger = Trigger::kEvery;
        site.n = parseCount(args, "every()");
    } else if (splitCall(trigger, "prob", &args)) {
        site.trigger = Trigger::kProb;
        const std::size_t comma = args.find(',');
        fatalIf(comma == std::string::npos,
                "failpoint spec: prob wants prob(P,SEED)");
        const std::string p = args.substr(0, comma);
        site.p = cli::parseFinite(p).value_or(-1.0);
        fatalIf(site.p < 0.0 || site.p > 1.0,
                "failpoint spec: probability \"" + p +
                    "\" is not a number in [0, 1]");
        site.rng =
            Rng{parseCount(args.substr(comma + 1), "prob() seed")};
    } else {
        fatal("failpoint spec: unknown trigger \"" + trigger +
              "\" (legal: always, nth(N), every(K), prob(P,SEED))");
    }

    if (splitCall(action, "error", &args)) {
        fatalIf(!args.empty(),
                "failpoint spec: \"error\" takes no argument");
        site.action = ActionKind::kError;
    } else if (splitCall(action, "partial", &args)) {
        site.action = ActionKind::kPartial;
        site.arg = parseCount(args, "partial()");
    } else if (splitCall(action, "delay", &args)) {
        site.action = ActionKind::kDelay;
        site.arg = parseCount(args, "delay()");
    } else {
        fatal("failpoint spec: unknown action \"" + action +
              "\" (legal: error, partial(BYTES), delay(MS))");
    }
    return site;
}

} // namespace

namespace detail
{

std::atomic<int> g_armedCount{0};

Action
evalSlow(const char *site)
{
    Action out;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        auto it = registry().find(site);
        if (it == registry().end())
            return out;
        Site &s = it->second;
        ++s.hits;
        bool fire = false;
        switch (s.trigger) {
        case Trigger::kAlways:
            fire = true;
            break;
        case Trigger::kNth:
            fire = s.hits == s.n;
            break;
        case Trigger::kEvery:
            fire = s.hits % s.n == 0;
            break;
        case Trigger::kProb:
            fire = s.rng.chance(s.p);
            break;
        }
        if (!fire)
            return out;
        ++s.fires;
        out.kind = s.action;
        out.arg = s.arg;
    }
    if (out.kind == ActionKind::kDelay) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(out.arg));
        out = Action{}; // the delay is the whole effect
    }
    return out;
}

void
raiseSlow(const char *site)
{
    const Action a = evalSlow(site);
    if (a.kind == ActionKind::kError || a.kind == ActionKind::kPartial)
        fatal("failpoint \"" + std::string(site) + "\" fired");
}

} // namespace detail

void
arm(const std::string &site, const std::string &spec)
{
    fatalIf(site.empty(), "failpoint site name must be non-empty");
    Site parsed = parseSpec(spec);
    std::lock_guard<std::mutex> lock(g_mu);
    const bool fresh =
        registry().insert_or_assign(site, std::move(parsed)).second;
    if (fresh)
        detail::g_armedCount.fetch_add(1, std::memory_order_relaxed);
}

void
armFromList(const std::string &list)
{
    std::size_t begin = 0;
    while (begin <= list.size()) {
        std::size_t end = list.find(';', begin);
        if (end == std::string::npos)
            end = list.size();
        const std::string pair = list.substr(begin, end - begin);
        if (!pair.empty()) {
            const std::size_t eq = pair.find('=');
            fatalIf(eq == std::string::npos || eq == 0,
                    "failpoint list entry \"" + pair +
                        "\": want SITE=SPEC");
            arm(pair.substr(0, eq), pair.substr(eq + 1));
        }
        begin = end + 1;
    }
}

void
disarm(const std::string &site)
{
    std::lock_guard<std::mutex> lock(g_mu);
    if (registry().erase(site) > 0)
        detail::g_armedCount.fetch_sub(1, std::memory_order_relaxed);
}

void
disarmAll()
{
    std::lock_guard<std::mutex> lock(g_mu);
    detail::g_armedCount.fetch_sub(static_cast<int>(registry().size()),
                                   std::memory_order_relaxed);
    registry().clear();
}

std::uint64_t
hits(const std::string &site)
{
    std::lock_guard<std::mutex> lock(g_mu);
    const auto it = registry().find(site);
    return it == registry().end() ? 0 : it->second.hits;
}

std::uint64_t
fires(const std::string &site)
{
    std::lock_guard<std::mutex> lock(g_mu);
    const auto it = registry().find(site);
    return it == registry().end() ? 0 : it->second.fires;
}

std::vector<std::string>
armedSites()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &[name, site] : registry())
        names.push_back(name);
    return names;
}

} // namespace cryo::failpoint
