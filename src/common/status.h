// common::Status — the typed result of an index operation (Index API v2).
//
// The v1 interface returned bare bools whose meaning differed per call
// ("inserted a new key" for insert, "hit" for search/update/remove) and
// rejected malformed keys by throwing std::invalid_argument. Status makes
// the outcome explicit: callers compare against a Code (or use ok() for
// "the operation was applied or answered"), and validation failures
// surface as kInvalidArgument instead of an exception. There is
// deliberately no implicit bool conversion — the v1 shim's truth table
// (kOk and kInserted true, everything else false) read differently per
// operation and hid kUpdated/kOutOfMemory outcomes behind `false`.
#pragma once

#include <cstdint>

namespace hart::common {

class Status {
 public:
  enum Code : uint8_t {
    kOk = 0,               // search hit / update applied / remove applied
    kInserted = 1,         // insert created a new key
    kUpdated = 2,          // insert hit an existing key and updated it
    kNotFound = 3,         // key absent
    kInvalidArgument = 4,  // malformed key or value; nothing was mutated
    kOutOfMemory = 5,      // arena exhausted; nothing was mutated
    kUnavailable = 6,      // service/transport failure (client-side)
    kUnsupportedFormat = 7,  // PM image of another on-media format; refused
                             // before anything was read or written
  };

  constexpr Status() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): Code literals are Statuses.
  constexpr Status(Code c) : code_(c) {}

  [[nodiscard]] constexpr Code code() const { return code_; }
  /// Every non-error outcome (the operation was applied or answered).
  [[nodiscard]] constexpr bool ok() const {
    return code_ == kOk || code_ == kInserted || code_ == kUpdated;
  }

  friend constexpr bool operator==(Status a, Status b) {
    return a.code_ == b.code_;
  }
  friend constexpr bool operator!=(Status a, Status b) { return !(a == b); }

  [[nodiscard]] const char* name() const {
    switch (code_) {
      case kOk: return "ok";
      case kInserted: return "inserted";
      case kUpdated: return "updated";
      case kNotFound: return "not-found";
      case kOutOfMemory: return "out-of-memory";
      case kUnavailable: return "unavailable";
      case kUnsupportedFormat: return "unsupported-format";
      default: return "invalid-argument";
    }
  }

 private:
  Code code_ = kOk;
};

}  // namespace hart::common
