#include "sim/simulator.h"

namespace doxlab::sim {

namespace detail {

bool SimCore::cancel(std::uint32_t idx, std::uint32_t gen) {
  if (!armed(idx, gen)) return false;
  remove_at(heap_pos[idx]);
  // Release the closure now, not at its scheduled time: closures can hold
  // large object graphs alive.
  release(idx);
  return true;
}

}  // namespace detail

void Timer::cancel() {
  if (core_) core_->cancel(slot_, gen_);
}

bool Timer::armed() const {
  return static_cast<bool>(core_) && core_->armed(slot_, gen_);
}

}  // namespace doxlab::sim
