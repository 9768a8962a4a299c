// Move-only type-erased callable with inline storage: the type of simulator
// events, Network handlers and ActorContext::offload continuations.
//
// std::function (libstdc++) keeps a capture in place only if it is trivially
// copyable and at most two pointers in size, and the simulator creates
// several closures per delivered message (arrival, downlink, lane-0 handler,
// offload continuation). InlineFunction stores any
// nothrow-movable callable of at most `Capacity` bytes in place; a larger one
// falls back to one heap allocation. It is move-only, so captures need not be
// copyable, and moving it relocates the callable (the source is left empty).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace sbft::sim {

template <typename Signature, size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // implicit, like std::function
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    SBFT_CHECK(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// Destroys the stored callable, if any; the function is then empty.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() {
    return kStoredInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    // Move-constructs the callable at `dst` from the one at `src`, then
    // destroys the one at `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= Capacity && alignof(D) <= 8 &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) -> R {
        return (*static_cast<D*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* from = static_cast<D*>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return (**static_cast<D**>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  void take(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(8) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace sbft::sim
