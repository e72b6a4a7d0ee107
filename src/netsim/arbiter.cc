#include "arbiter.hh"

#include "util/diag.hh"

namespace cryo::netsim
{

MatrixArbiter::MatrixArbiter(int requesters)
    : n_(requesters), clock_(static_cast<std::uint64_t>(requesters))
{
    fatalIf(requesters < 1, "arbiter needs at least one requester");
    // Initial priority: lower index beats higher index.
    stamp_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i)
        stamp_[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i);
}

bool
MatrixArbiter::beats(int a, int b) const
{
    return stamp_[static_cast<std::size_t>(a)] <
        stamp_[static_cast<std::size_t>(b)];
}

int
MatrixArbiter::arbitrate(const std::vector<bool> &requests)
{
    fatalIf(static_cast<int>(requests.size()) != n_,
            "request vector size mismatch");
    int winner = -1;
    for (int i = 0; i < n_; ++i) {
        if (requests[static_cast<std::size_t>(i)] &&
            (winner < 0 || beats(i, winner)))
            winner = i;
    }
    // Winner becomes lowest priority.
    if (winner >= 0)
        stamp_[static_cast<std::size_t>(winner)] = clock_++;
    return winner;
}

} // namespace cryo::netsim
