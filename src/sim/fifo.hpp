/**
 * @file
 * Allocation-free-when-idle FIFO queue.
 *
 * A default-constructed `std::deque` already owns a heap map and one node
 * (~600 bytes in libstdc++). The simulator keeps a queue per traffic class
 * per channel, per LTL connection, per router VC and per endpoint VC, and
 * at the 249,600-host L2 scale almost all of them stay empty for the whole
 * run, so idle deques dominate peak RSS. `Fifo` is a power-of-two ring
 * buffer that owns nothing until its first push, grows by doubling, and
 * keeps strict FIFO order. `pop_front()` destroys the element at once, as
 * `std::deque` does, so the lifetime of queued `shared_ptr`s is unchanged.
 * The buffer is kept across pops and `clear()`, and released only by the
 * destructor or a move.
 */
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ccsim::sim {

template <typename T>
class Fifo
{
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(const Fifo *f, std::size_t i) : fifo(f), idx(i) {}

        reference operator*() const { return fifo->slot(idx); }
        pointer operator->() const { return &fifo->slot(idx); }
        Iter &operator++()
        {
            ++idx;
            return *this;
        }
        Iter operator++(int)
        {
            Iter old = *this;
            ++idx;
            return old;
        }
        bool operator==(const Iter &o) const { return idx == o.idx; }

      private:
        const Fifo *fifo = nullptr;
        std::size_t idx = 0;
    };

  public:
    using value_type = T;
    using size_type = std::size_t;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    Fifo() noexcept = default;
    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    Fifo(Fifo &&o) noexcept
        : buf(std::exchange(o.buf, nullptr)), cap(std::exchange(o.cap, 0)),
          head(std::exchange(o.head, 0)), count(std::exchange(o.count, 0))
    {
    }

    Fifo &operator=(Fifo &&o) noexcept
    {
        if (this != &o) {
            release();
            buf = std::exchange(o.buf, nullptr);
            cap = std::exchange(o.cap, 0);
            head = std::exchange(o.head, 0);
            count = std::exchange(o.count, 0);
        }
        return *this;
    }

    ~Fifo() { release(); }

    bool empty() const { return count == 0; }
    size_type size() const { return count; }
    /** Elements the buffer holds without growing (0 until the first push). */
    size_type capacity() const { return cap; }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <typename... Args>
    void emplace_back(Args &&...args)
    {
        if (count == cap) {
            growAndEmplace(std::forward<Args>(args)...);
            return;
        }
        ::new (static_cast<void *>(&buf[(head + count) & (cap - 1)]))
            T(std::forward<Args>(args)...);
        ++count;
    }

    /** Remove and destroy the oldest element. */
    void pop_front()
    {
        std::destroy_at(&buf[head]);
        head = (head + 1) & (cap - 1);
        --count;
    }

    /** Destroy every element; the buffer is kept for reuse. */
    void clear()
    {
        while (count > 0)
            pop_front();
        head = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    static constexpr size_type kInitialCapacity = 4;

    T *buf = nullptr;
    size_type cap = 0;    ///< zero or a power of two
    size_type head = 0;   ///< index of the oldest element
    size_type count = 0;

    T &slot(size_type i) const { return buf[(head + i) & (cap - 1)]; }

    void release()
    {
        clear();
        if (buf != nullptr)
            std::allocator<T>{}.deallocate(buf, cap);
        buf = nullptr;
        cap = 0;
    }

    /**
     * Slow path of emplace_back(): the new element is constructed in the
     * new buffer before the old elements move, so @p args may refer to
     * an element of this queue.
     */
    template <typename... Args>
    void growAndEmplace(Args &&...args)
    {
        const size_type new_cap = cap == 0 ? kInitialCapacity : cap * 2;
        T *nb = std::allocator<T>{}.allocate(new_cap);
        ::new (static_cast<void *>(&nb[count])) T(std::forward<Args>(args)...);
        for (size_type i = 0; i < count; ++i) {
            T &old = slot(i);
            ::new (static_cast<void *>(&nb[i])) T(std::move(old));
            std::destroy_at(&old);
        }
        if (buf != nullptr)
            std::allocator<T>{}.deallocate(buf, cap);
        buf = nb;
        cap = new_cap;
        head = 0;
        ++count;
    }
};

}  // namespace ccsim::sim
