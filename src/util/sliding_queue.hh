/**
 * @file
 * FIFO queue on one contiguous heap buffer, for the netsim networks'
 * unbounded per-node queues (the bus's request queues and the
 * routers' NI source queues).
 *
 * Storage is a plain std::vector, so a buffer the queue outgrows goes
 * back to the heap when the vector reallocates: a saturated
 * simulation holds its live backlog (at most twice over), not every
 * buffer it ever grew through.
 */

#ifndef CRYOWIRE_UTIL_SLIDING_QUEUE_HH
#define CRYOWIRE_UTIL_SLIDING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace cryo
{

/**
 * pop_front() is an index bump; the dead prefix is compacted away once
 * it exceeds half the buffer (amortized O(1)), so memory stays
 * proportional to the live backlog. Unlike std::deque the storage is
 * one contiguous run, which is what the per-cycle queue scans in the
 * network models iterate.
 */
template <class T> class SlidingQueue
{
  public:
    bool empty() const { return head_ == data_.size(); }
    std::size_t size() const { return data_.size() - head_; }

    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }
    T &back() { return data_.back(); }
    const T &back() const { return data_.back(); }

    void push_back(const T &value) { data_.push_back(value); }
    void push_back(T &&value) { data_.push_back(std::move(value)); }
    template <class... Args> T &emplace_back(Args &&...args)
    {
        return data_.emplace_back(std::forward<Args>(args)...);
    }

    void pop_front()
    {
        ++head_;
        if (head_ == data_.size()) {
            data_.clear();
            head_ = 0;
        } else if (head_ >= kCompactMin && head_ > data_.size() / 2) {
            data_.erase(data_.begin(),
                        data_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    void clear()
    {
        data_.clear();
        head_ = 0;
    }

    auto begin() { return data_.begin() + static_cast<std::ptrdiff_t>(head_); }
    auto end() { return data_.end(); }
    auto begin() const
    {
        return data_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    auto end() const { return data_.end(); }

  private:
    static constexpr std::size_t kCompactMin = 32;

    std::vector<T> data_;
    std::size_t head_ = 0;
};

} // namespace cryo

#endif // CRYOWIRE_UTIL_SLIDING_QUEUE_HH
