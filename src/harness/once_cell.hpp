// OnceCell<T>: a value built at most once, by whichever caller gets there
// first, and shared by every later one.
//
// get(build) runs `build` exactly once across all threads (std::call_once);
// concurrent callers block until it finishes. If the build throws, the
// exception is kept and rethrown to every caller, now and later, so a
// failed build is neither retried nor hidden. The harness memoizes its
// per-workload and per-preparation state this way (harness/grid.cpp,
// harness/experiment.cpp).
#pragma once

#include <exception>
#include <mutex>
#include <utility>

namespace t1000 {

template <typename T>
class OnceCell {
 public:
  // Returns the value, building it with `build()` on the first call. Sets
  // `*built` (when given) to whether this call ran the build.
  template <typename Build>
  const T& get(Build&& build, bool* built = nullptr) {
    bool ran = false;
    std::call_once(once_, [&] {
      ran = true;
      try {
        value_ = std::forward<Build>(build)();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    if (built != nullptr) *built = ran;
    if (error_) std::rethrow_exception(error_);
    return value_;
  }

  // The value as it stands, without building: T{} until a build has
  // succeeded. Only meaningful once every get() has returned.
  const T& peek() const { return value_; }

 private:
  std::once_flag once_;
  T value_{};
  std::exception_ptr error_;
};

}  // namespace t1000
