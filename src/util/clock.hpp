// Simulated time. The whole system runs on a virtual clock so that
// 24-hour measurement campaigns (96 rounds of 10-minute scans, §4.2)
// complete in milliseconds of wall time while preserving timestamps on
// packets, late-reply classification, and hourly load bins.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace vp::util {

/// Virtual time since the start of the experiment, in microseconds.
/// A strong type so simulated time can never be mixed with wall time.
struct SimTime {
  std::int64_t usec = 0;

  static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e6)};
  }
  static constexpr SimTime from_minutes(double m) {
    return from_seconds(m * 60.0);
  }
  static constexpr SimTime from_hours(double h) {
    return from_seconds(h * 3600.0);
  }

  constexpr double seconds() const { return static_cast<double>(usec) / 1e6; }
  constexpr double minutes() const { return seconds() / 60.0; }
  constexpr double hours() const { return seconds() / 3600.0; }

  constexpr auto operator<=>(const SimTime&) const = default;
  constexpr SimTime operator+(SimTime other) const {
    return SimTime{usec + other.usec};
  }
  constexpr SimTime operator-(SimTime other) const {
    return SimTime{usec - other.usec};
  }
  constexpr SimTime& operator+=(SimTime other) {
    usec += other.usec;
    return *this;
  }
};

/// Renders "HH:MM:SS" for logs and table captions.
std::string format_hms(SimTime t);

}  // namespace vp::util
