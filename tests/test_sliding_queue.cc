/**
 * @file
 * Tests for the sliding FIFO queue that backs the netsim networks'
 * packet and flit queues.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "util/rng.hh"
#include "util/sliding_queue.hh"

namespace
{

using cryo::SlidingQueue;

TEST(SlidingQueue, FifoMatchesDequeUnderRandomTraffic)
{
    SlidingQueue<int> q;
    std::deque<int> ref;
    cryo::Rng rng{0xa3e1u};
    int next = 0;
    for (int step = 0; step < 20000; ++step) {
        if (ref.empty() || rng.uniform() < 0.55) {
            q.push_back(next);
            ref.push_back(next);
            ++next;
        } else {
            ASSERT_EQ(q.front(), ref.front());
            q.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
        ASSERT_EQ(q.front(), ref.front());
        q.pop_front();
        ref.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(SlidingQueue, IterationCoversLiveRangeOnly)
{
    SlidingQueue<int> q;
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    for (int i = 0; i < 4; ++i)
        q.pop_front();
    std::vector<int> seen(q.begin(), q.end());
    EXPECT_EQ(seen, (std::vector<int>{4, 5, 6, 7, 8, 9}));
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.begin(), q.end());
}

} // namespace
