// Small-buffer callback type for the event engine's hot path.
//
// Every simulated event carries a callback; with std::function the
// common captures (a delivered Message, a coroutine handle, a shared
// completion state) overflow the library's tiny SBO and cost one heap
// allocation + deallocation per event. InlineCallback sizes its inline
// buffer so every callback the simulator schedules -- coroutine
// resumes, message deliveries, completion notifications -- is stored
// in place: the steady-state event loop performs zero allocations.
//
// Callables larger than the buffer still work (heap fallback) but bump
// the obs counter `engine.callback_heap_allocs`, so tests and benches
// can assert the zero-allocation contract instead of trusting it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "obs/counters.hpp"

namespace sci::sim {

/// Per-thread running count of InlineCallback heap spills. Mirrors the
/// global obs counter `engine.callback_heap_allocs` but is private to
/// the calling thread, so a campaign worker can take per-replication
/// deltas without seeing other workers' spills (the global counter
/// keeps the process total for report footers).
[[nodiscard]] inline std::uint64_t callback_heap_spills_local() noexcept;

namespace detail {
inline std::uint64_t& callback_spill_tally() noexcept {
  static thread_local std::uint64_t count = 0;
  return count;
}
}  // namespace detail

inline std::uint64_t callback_heap_spills_local() noexcept {
  return detail::callback_spill_tally();
}

/// Move-only type-erased `void()` callable with an inline buffer large
/// enough for the simulator's event captures (~64-byte payloads plus a
/// pointer; see simmpi::World::deliver). Unlike std::function it
/// accepts move-only callables, and its move is a memcpy-sized
/// relocation -- cheap enough to live inside a pooled event arena.
class InlineCallback {
 public:
  /// Inline capacity. The largest steady-state capture today is
  /// simmpi's message delivery (a World pointer + a 56-byte Message) at
  /// 64 bytes; 80 leaves headroom without inflating the event arena slot
  /// past one cache line pair.
  static constexpr std::size_t kInlineBytes = 80;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    emplace(std::forward<F>(fn));
  }

  InlineCallback(InlineCallback&& other) noexcept
      : vtable_(other.vtable_), invoke_(other.invoke_) {
    if (vtable_ != nullptr) vtable_->relocate(other.storage_, storage_);
    other.vtable_ = nullptr;
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      invoke_ = other.invoke_;
      if (vtable_ != nullptr) vtable_->relocate(other.storage_, storage_);
      other.vtable_ = nullptr;
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  /// Replaces the stored callable, constructing `fn` directly in the
  /// buffer -- no intermediate InlineCallback, no extra relocation.
  /// This is what lets the event arena erase a lambda exactly once.
  template <typename F>
  void assign(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      *this = std::forward<F>(fn);
    } else {
      reset();
      emplace(std::forward<F>(fn));
    }
  }

  /// True when a callable of type F is stored in the inline buffer
  /// (compile-time; lets tests assert specific captures never allocate).
  template <typename F>
  [[nodiscard]] static constexpr bool stores_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct VTable {
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    /// Null when destruction is a no-op, so the per-event release path
    /// skips the indirect call entirely for trivial captures.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  struct InlineOps {
    static void invoke(void* storage) { (*std::launder(static_cast<F*>(storage)))(); }
    static void relocate(void* src, void* dst) noexcept {
      F* from = std::launder(static_cast<F*>(src));
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* storage) noexcept { std::launder(static_cast<F*>(storage))->~F(); }
    static constexpr VTable kVTable{
        &relocate, std::is_trivially_destructible_v<F> ? nullptr : &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F*& slot(void* storage) noexcept { return *std::launder(static_cast<F**>(storage)); }
    static void invoke(void* storage) { (*slot(storage))(); }
    static void relocate(void* src, void* dst) noexcept {
      ::new (dst) F*(slot(src));
    }
    static void destroy(void* storage) noexcept { delete slot(storage); }
    static constexpr VTable kVTable{&relocate, &destroy};
  };

  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &InlineOps<D>::kVTable;
      invoke_ = &InlineOps<D>::invoke;
    } else {
      // Cold path: oversized capture. Tallied so the zero-allocation
      // contract is checkable, not aspirational.
      static obs::Counter& heap_allocs = obs::counter(obs::keys::kEngineCallbackHeapAllocs);
      heap_allocs.add(1);
      ++detail::callback_spill_tally();
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &HeapOps<D>::kVTable;
      invoke_ = &HeapOps<D>::invoke;
    }
  }

  // The invoke pointer is stored directly (not behind the vtable): the
  // dispatch loop's call is one load off the object instead of two
  // dependent loads, and the bytes are free -- they live in the padding
  // before the max_align_t-aligned buffer.
  const VTable* vtable_ = nullptr;
  void (*invoke_)(void* storage) = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
};

}  // namespace sci::sim
