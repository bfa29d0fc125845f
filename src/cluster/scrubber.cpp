#include "cluster/scrubber.h"

namespace tvmec::cluster {

bool Scrubber::scrub_next(ScrubStats& increment) {
  // Resume at (object, stripe), tolerating objects having been added or
  // removed since the last step.
  std::optional<std::string> obj;
  if (!cursor_started_) {
    cursor_started_ = true;
    cursor_stripe_ = 0;
    obj = cluster_.object_at_or_after("");
  } else {
    obj = cluster_.object_at_or_after(cursor_object_);
    if (!obj || *obj != cursor_object_)
      cursor_stripe_ = 0;  // our object vanished; start its successor
  }
  while (obj && cursor_stripe_ >= cluster_.object_stripe_count(*obj)) {
    obj = cluster_.object_after(*obj);
    cursor_stripe_ = 0;
  }
  if (!obj) return false;
  cursor_object_ = *obj;
  const StripeScrubResult r = cluster_.scrub_stripe(*obj, cursor_stripe_++);
  increment.add(r, cluster_.unit_size());
  current_.add(r, cluster_.unit_size());
  return true;
}

void Scrubber::finish_pass() {
  last_ = current_;
  ++passes_;
  reset_cursor();
}

void Scrubber::reset_cursor() {
  cursor_object_.clear();
  cursor_stripe_ = 0;
  cursor_started_ = false;
  current_ = ScrubStats{};
}

ScrubStats Scrubber::step(std::size_t max_stripes) {
  ScrubStats increment;
  for (std::size_t i = 0; i < max_stripes; ++i) {
    if (!scrub_next(increment)) {
      finish_pass();
      break;
    }
  }
  return increment;
}

ScrubStats Scrubber::run() {
  ScrubStats increment;
  while (scrub_next(increment)) {
  }
  finish_pass();
  return increment;
}

}  // namespace tvmec::cluster
