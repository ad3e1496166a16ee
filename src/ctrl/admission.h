// Decision-driven admission cap — the control half of the paper's §I
// promise ("knowledge about the server capacity can help a
// measurement-based admission controller in the front-end to regulate
// the input traffic rate").
//
// An open-loop front door facing a flash crowd needs a *cap*: offered
// load can be millions of EBs while the site saturates in the thousands,
// and the controller must shed the difference arithmetically rather than
// simulate (or worse, admit) every arrival. A per-request front door
// gates each arrival with admit_fraction() instead (the admission_control
// and service_differentiation examples). This controller runs AIMD on an
// admitted-load cap, keyed off the coordinated predictor's decisions:
//
//   * multiplicative decrease after `overload_votes` consecutive
//     grounded overload decisions (hysteresis: one noisy window never
//     actuates), re-anchored at the observed admitted load so a cap
//     parked far above actual traffic becomes binding in one step;
//   * additive increase after `underload_votes` consecutive grounded
//     underload decisions, probing back toward `max_cap`;
//   * a cooldown of `cooldown_windows` grounded windows after any
//     actuation, so the loop never flaps at the knee;
//   * a hard freeze on degraded/stale decisions and on non-finite
//     inputs — a coasting predictor must not drive the front door, and
//     frozen windows do not tick the cooldown (the cap stays on its
//     cooldown path until grounded data returns).
//
// Units are the caller's: EBs for the closed-loop pipeline, requests/s
// for the open-loop testbed driver. The controller itself draws no
// randomness — identical decision streams replay to identical caps.
#pragma once

#include <cstdint>

#include "core/coordinated.h"
#include "ctrl/action.h"

namespace hpcap::ctrl {

struct CapAdmissionOptions {
  double min_cap = 1.0;    // never shed to a full blackout
  double max_cap = 1e9;    // admitted-load ceiling
  double initial_cap = 1e9;
  double decrease_factor = 0.70;  // MD on sustained overload
  double increase_step = 25.0;    // AI per sustained-underload window
  int overload_votes = 2;         // consecutive overloads before MD
  int underload_votes = 2;        // consecutive underloads before AI
  int cooldown_windows = 3;       // grounded windows frozen after actuation

  // Copy with every field forced into its documented domain (factors into
  // (0, 1], steps non-negative, min <= initial <= max, votes >= 1,
  // cooldown >= 0; non-finite fields fall back to defaults).
  CapAdmissionOptions sanitized() const noexcept;
};

struct CapAction {
  ActionKind kind = ActionKind::kNone;
  double cap = 0.0;  // cap in force after this window
  int tier = -1;     // bottleneck tier blamed (decrease only)
};

class CapAdmissionController {
 public:
  using Options = CapAdmissionOptions;

  explicit CapAdmissionController(Options opts = Options());

  // Feed the coordinated decision for one window. `admitted_load` is the
  // load actually admitted during that window (the MD anchor); the
  // anchorless overload uses the current cap itself — right for advisory
  // deployments (hpcapd STATS) that see decisions but not load.
  CapAction on_window(const core::CoordinatedPredictor::Decision& d,
                      double admitted_load);
  CapAction on_window(const core::CoordinatedPredictor::Decision& d);

  double cap() const noexcept { return cap_; }
  // Shed arithmetic for an offered load this window. Non-finite offered
  // load fails safe: nothing is admitted.
  double admitted(double offered) const noexcept;
  double shed(double offered) const noexcept;
  // Per-request gate probability, min(1, cap/offered), for probabilistic
  // front doors (Poisson thinning keeps the admitted stream Poisson).
  double admit_fraction(double offered) const noexcept;

  const Options& options() const noexcept { return opts_; }
  int overload_streak() const noexcept { return over_streak_; }
  int underload_streak() const noexcept { return under_streak_; }
  int cooldown_remaining() const noexcept { return cooldown_left_; }
  std::uint64_t decreases() const noexcept { return decreases_; }
  std::uint64_t increases() const noexcept { return increases_; }
  std::uint64_t freezes() const noexcept { return freezes_; }
  std::uint64_t windows() const noexcept { return windows_; }

 private:
  CapAction apply_decrease(double anchor, int tier);
  CapAction apply_increase();

  Options opts_;
  double cap_ = 0.0;
  int over_streak_ = 0;
  int under_streak_ = 0;
  int cooldown_left_ = 0;
  std::uint64_t decreases_ = 0;
  std::uint64_t increases_ = 0;
  std::uint64_t freezes_ = 0;
  std::uint64_t windows_ = 0;
};

}  // namespace hpcap::ctrl
