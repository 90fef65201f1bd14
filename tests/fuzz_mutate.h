#pragma once
// A deterministic, in-repo byte mutator for the decoder fuzz suite
// (test_decoder_fuzz.cpp).  No external fuzzer: every mutation comes from
// a seeded SplitMix64 stream (net/rng.h), so a failure replays from its
// seed alone on any machine.  The mutations are the usual coverage-free
// set: bit flips, 0x00 / 0xFF / random byte overwrites, truncation, random
// inserts and deletes, two-input splices, and "bumps" of a little-endian
// u32 — the width of every length field in MRLN, MSNP and the ring header.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/rng.h"

namespace merlin::fuzz {

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// `input` with one to four stacked mutations; `other` feeds splices.
  std::string mutate(std::string_view input, std::string_view other) {
    std::string out(input);
    const int n = static_cast<int>(below(4)) + 1;
    for (int i = 0; i < n; ++i) mutate_once(out, other);
    return out;
  }

 private:
  std::uint64_t below(std::uint64_t n) {
    return n == 0 ? 0 : rng_.next_u64() % n;
  }
  std::size_t pos(const std::string& s) { return below(s.size()); }
  char random_byte() { return static_cast<char>(rng_.next_u64() & 0xFF); }

  void mutate_once(std::string& s, std::string_view other) {
    switch (below(9)) {
      case 0:  // bit flip
        if (!s.empty()) s[pos(s)] ^= static_cast<char>(1u << below(8));
        break;
      case 1:  // 0x00 overwrite
        if (!s.empty()) s[pos(s)] = '\0';
        break;
      case 2:  // 0xFF overwrite
        if (!s.empty()) s[pos(s)] = static_cast<char>(0xFF);
        break;
      case 3:  // random overwrite
        if (!s.empty()) s[pos(s)] = random_byte();
        break;
      case 4:  // truncation
        s.resize(below(s.size() + 1));
        break;
      case 5: {  // insert 1..8 random bytes
        const std::size_t at = below(s.size() + 1);
        std::string ins(below(8) + 1, '\0');
        for (char& c : ins) c = random_byte();
        s.insert(at, ins);
        break;
      }
      case 6:  // delete 1..8 bytes
        if (!s.empty()) {
          const std::size_t at = pos(s);
          s.erase(at, below(8) + 1);
        }
        break;
      case 7: {  // splice: a prefix of s, then a suffix of `other`
        const std::size_t cut = below(s.size() + 1);
        const std::size_t from = below(other.size() + 1);
        s.resize(cut);
        s.append(other.substr(from));
        break;
      }
      default:  // bump a little-endian u32 (a length field, if one sits here)
        if (s.size() >= 4) bump_u32(s, below(s.size() - 3));
        break;
    }
  }

  void bump_u32(std::string& s, std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t{static_cast<unsigned char>(s[at + i])} << (8 * i);
    switch (below(6)) {
      case 0: v += 1; break;
      case 1: v -= 1; break;
      case 2: v += 1u << below(32); break;
      case 3: v = 0xFFFFFFFFu; break;
      case 4: v = 0; break;
      default: v = static_cast<std::uint32_t>(s.size() - at); break;
    }
    for (int i = 0; i < 4; ++i)
      s[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }

  Rng rng_;
};

}  // namespace merlin::fuzz
