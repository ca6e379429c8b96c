#include "src/core/config.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace numalp {

std::string_view NameOf(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLinux4K:
      return "Linux-4K";
    case PolicyKind::kThp:
      return "THP";
    case PolicyKind::kCarrefour2M:
      return "Carrefour-2M";
    case PolicyKind::kReactiveOnly:
      return "Reactive";
    case PolicyKind::kConservativeOnly:
      return "Conservative";
    case PolicyKind::kCarrefourLp:
      return "Carrefour-LP";
  }
  return "?";
}

std::string_view NameOf(ProfileMode mode) {
  switch (mode) {
    case ProfileMode::kExact:
      return "exact";
    case ProfileMode::kSketch:
      return "sketch";
  }
  return "?";
}

bool ParseProfileMode(std::string_view text, ProfileMode* out) {
  if (text == "exact") {
    *out = ProfileMode::kExact;
    return true;
  }
  if (text == "sketch") {
    *out = ProfileMode::kSketch;
    return true;
  }
  return false;
}

PolicyConfig MakePolicyConfig(PolicyKind kind) {
  PolicyConfig config;
  config.kind = kind;
  switch (kind) {
    case PolicyKind::kLinux4K:
      break;
    case PolicyKind::kThp:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      break;
    case PolicyKind::kCarrefour2M:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      break;
    case PolicyKind::kReactiveOnly:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      config.use_reactive = true;
      break;
    case PolicyKind::kConservativeOnly:
      // "The original Carrefour runtime (working on 4kB pages) together with
      // the conservative component" (Section 4.1).
      config.use_carrefour = true;
      config.use_conservative = true;
      break;
    case PolicyKind::kCarrefourLp:
      // "It is more practical and involves less overhead to enable large
      // pages in the beginning and disable them later" (Section 3.2).
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      config.use_reactive = true;
      config.use_conservative = true;
      break;
  }
  return config;
}

void ThrowBadEnv(const char* name, const char* value) {
  throw std::invalid_argument(std::string("bad value '") + value + "' for " + name);
}

SimConfig WithEnvOverrides(SimConfig sim) {
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  if (const auto epochs = EnvNumber("NUMALP_MAX_EPOCHS", 1, std::numeric_limits<int>::max())) {
    sim.max_epochs = *epochs;
  }
  if (const auto accesses = EnvNumber("NUMALP_ACCESSES_PER_EPOCH", std::uint64_t{1}, kMaxU32)) {
    sim.accesses_per_thread_per_epoch = *accesses;
  }
  if (const auto seed = EnvNumber("NUMALP_SEED", std::uint64_t{0}, kMaxU64)) {
    sim.seed = *seed;
  }
  if (const char* mode = std::getenv("NUMALP_PROFILE_MODE");
      mode != nullptr && !ParseProfileMode(mode, &sim.profile_mode)) {
    ThrowBadEnv("NUMALP_PROFILE_MODE", mode);
  }
  if (const auto threshold = EnvNumber("NUMALP_PROFILE_THRESHOLD", std::uint64_t{1}, kMaxU64)) {
    sim.profile_sketch.admit_threshold = *threshold;
  }
  if (const auto capacity =
          EnvNumber("NUMALP_PROFILE_FILTER_CAPACITY", std::uint64_t{1}, std::uint64_t{1} << 32)) {
    sim.profile_sketch.filter_capacity = *capacity;
  }
  if (const auto width = EnvNumber("NUMALP_PROFILE_SKETCH_WIDTH", std::uint32_t{1},
                                   std::numeric_limits<std::uint32_t>::max())) {
    sim.profile_sketch.sketch_width = *width;
  }
  if (const char* profile = std::getenv("NUMALP_FAULT_PROFILE")) {
    const auto parsed = ParseFaultProfile(profile);
    if (!parsed) {
      ThrowBadEnv("NUMALP_FAULT_PROFILE", profile);
    }
    sim.faults.profile = *parsed;
  }
  if (const auto pct = EnvNumber("NUMALP_FAULT_ALLOC_PCT", 0.0, 100.0)) {
    sim.faults.alloc_fail_pct = *pct;
  }
  if (const auto pct = EnvNumber("NUMALP_FAULT_MIGRATE_PCT", 0.0, 100.0)) {
    sim.faults.migrate_fail_pct = *pct;
  }
  if (const auto pct = EnvNumber("NUMALP_FAULT_LARGE_MIGRATE_PCT", 0.0, 100.0)) {
    sim.faults.large_migrate_fail_pct = *pct;
  }
  if (const auto pct = EnvNumber("NUMALP_FAULT_PRESSURE_PCT", 0.0, 100.0)) {
    sim.faults.pressure_pct = *pct;
  }
  return sim;
}

}  // namespace numalp
