// Seeded corruption of untrusted input for the parser mutation tests:
// bit flips, truncations and splices of a string or byte buffer. A test
// draws a fixed budget of each kind from a fixed seed, so its mutants are
// the same on every run and under every build configuration.
#ifndef NUMALP_TESTS_MUTATION_H_
#define NUMALP_TESTS_MUTATION_H_

#include <algorithm>
#include <cstddef>
#include <random>

namespace numalp::mutation {

// Kind 0 flips one to three bits, kind 1 truncates, kind 2 splices a copied
// span of up to 64 elements in at another position.
template <typename Bytes>
Bytes Mutate(const Bytes& input, int kind, std::mt19937_64& rng) {
  Bytes text = input;
  const auto at = [&rng](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size)(rng);
  };
  if (kind == 0) {
    for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0 && !text.empty(); --flips) {
      text[at(text.size() - 1)] ^= static_cast<typename Bytes::value_type>(1 << (rng() % 8));
    }
  } else if (kind == 1) {
    text.resize(at(text.size()));
  } else {
    const std::size_t from = at(text.size());
    const std::size_t length = at(std::min<std::size_t>(64, text.size() - from));
    const Bytes span(text.begin() + from, text.begin() + from + length);
    text.insert(text.begin() + at(text.size()), span.begin(), span.end());
  }
  return text;
}

}  // namespace numalp::mutation

#endif  // NUMALP_TESTS_MUTATION_H_
