/**
 * @file
 * The bus arbiter. CryoBus uses a matrix arbiter in the central
 * controller (Fig. 19, step 2); the routers arbitrate with their own
 * per-link round-robin pointers (router_net.hh).
 */

#ifndef CRYOWIRE_NETSIM_ARBITER_HH
#define CRYOWIRE_NETSIM_ARBITER_HH

#include <cstdint>
#include <vector>

namespace cryo::netsim
{

/**
 * Matrix arbiter: a least-recently-served priority matrix. W[i][j]
 * set means i beats j; the winner's row is cleared and column set,
 * making it lowest priority next time - strong fairness, the classic
 * choice for bus arbitration.
 *
 * The matrix is always a total order (it starts as one and every
 * grant moves the winner to the bottom), so it is kept as one
 * last-granted stamp per requester: i beats j iff i's stamp is
 * smaller. A grant is O(n) and the state is n words.
 */
class MatrixArbiter
{
  public:
    explicit MatrixArbiter(int requesters);

    /**
     * Pick the winner among @p requests (index per requester, true =
     * requesting); -1 if none. Updates the priority matrix.
     */
    int arbitrate(const std::vector<bool> &requests);

    int size() const { return n_; }

    /** True when @p a currently has priority over @p b. */
    bool beats(int a, int b) const;

  private:
    int n_;
    /** Per requester: when it last won; initially its index. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_; ///< the next grant's stamp
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_ARBITER_HH
