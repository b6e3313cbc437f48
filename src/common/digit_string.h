// DigitString: a string of base-B digits — the universal identifier of the
// paper's design.
//
// The paper assigns every user an ID of D digits of base B (§2.1, Table 1).
// Prefixes of user IDs identify ID-tree nodes, key-tree k-nodes, keys, and
// encryptions (the "coherent identification strategy" of §2.4/§2.5). A single
// value type represents all of these: a DigitString of length 0..D, where a
// full-length string is a user ID and shorter strings are prefixes. The empty
// string is the paper's null ID "[]" (the ID-tree root / the key server /
// the group key).
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/check.h"

namespace tmesh {

// Maximum number of ID digits supported (the paper uses D = 5; Fig. 14
// explores up to 6). Kept small so DigitString stays a cheap value type.
inline constexpr int kMaxDigits = 8;

// Maximum digit base supported. The paper uses B = 256.
inline constexpr int kMaxBase = 256;

class DigitString {
 public:
  // The empty string "[]".
  constexpr DigitString() : digits_{}, size_(0) {}

  // From explicit digits.
  DigitString(std::initializer_list<int> digits) : digits_{}, size_(0) {
    TMESH_CHECK(static_cast<int>(digits.size()) <= kMaxDigits);
    for (int d : digits) Append(d);
  }

  static DigitString FromDigits(const std::uint8_t* digits, int n) {
    TMESH_CHECK(n >= 0 && n <= kMaxDigits);
    DigitString s;
    s.size_ = static_cast<std::uint8_t>(n);
    for (int i = 0; i < n; ++i) s.digits_[static_cast<std::size_t>(i)] = digits[i];
    return s;
  }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The i-th digit, counting from the left (the paper's u.ID[i]).
  int digit(int i) const {
    TMESH_DCHECK(i >= 0 && i < size_);
    return digits_[static_cast<std::size_t>(i)];
  }

  // The first `len` digits (the paper's u.ID[0 : len-1]). len may be 0
  // (yields the null string) or equal to size() (yields *this).
  DigitString Prefix(int len) const {
    TMESH_CHECK(len >= 0 && len <= size_);
    DigitString p;
    p.size_ = static_cast<std::uint8_t>(len);
    // One word store, so the comparisons that usually follow load the
    // prefix straight from the store buffer.
    p.SetWord(Word() & PrefixMask(len));
    return p;
  }

  // *this with `d` appended.
  DigitString Child(int d) const {
    DigitString c = *this;
    c.Append(d);
    return c;
  }

  // Drops the last digit. Precondition: not empty.
  DigitString Parent() const {
    TMESH_CHECK(size_ > 0);
    return Prefix(size_ - 1);
  }

  int LastDigit() const {
    TMESH_CHECK(size_ > 0);
    return digits_[static_cast<std::size_t>(size_ - 1)];
  }

  void Append(int d) {
    TMESH_CHECK(size_ < kMaxDigits);
    TMESH_CHECK(d >= 0 && d < kMaxBase);
    digits_[size_++] = static_cast<std::uint8_t>(d);
  }

  void SetDigit(int i, int d) {
    TMESH_DCHECK(i >= 0 && i < size_);
    TMESH_CHECK(d >= 0 && d < kMaxBase);
    digits_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(d);
  }

  // The comparisons below are single operations on the digits read as one
  // big-endian 64-bit word (Word()). They rely on the class invariant that
  // every digit past size_ is zero, which every constructor and mutator
  // keeps.

  // True iff *this is a prefix of `other`. Per the paper (§2.1): an ID is a
  // prefix of itself, and the null string is a prefix of every ID.
  bool IsPrefixOf(const DigitString& other) const {
    if (size_ > other.size_) return false;
    return (other.Word() & PrefixMask(size_)) == Word();
  }

  // Length of the longest common prefix with `other`.
  int CommonPrefixLen(const DigitString& other) const {
    const int n = size_ < other.size_ ? size_ : other.size_;
    const std::uint64_t diff = Word() ^ other.Word();
    const int same = diff == 0 ? kMaxDigits : std::countl_zero(diff) / 8;
    return same < n ? same : n;
  }

  friend bool operator==(const DigitString& a, const DigitString& b) {
    return a.size_ == b.size_ && a.Word() == b.Word();
  }
  friend bool operator!=(const DigitString& a, const DigitString& b) {
    return !(a == b);
  }
  // Lexicographic with shorter-prefix-first; gives a stable total order for
  // ordered containers. Zero padding makes a proper prefix's word no larger
  // than the longer string's, so equal words leave the length to decide.
  friend bool operator<(const DigitString& a, const DigitString& b) {
    const std::uint64_t wa = a.Word(), wb = b.Word();
    if (wa != wb) return wa < wb;
    return a.size_ < b.size_;
  }

  std::size_t Hash() const {
    // FNV-1a over (size, digits).
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint8_t byte) {
      h ^= byte;
      h *= 1099511628211ull;
    };
    mix(size_);
    for (int i = 0; i < size_; ++i) mix(digits_[static_cast<std::size_t>(i)]);
    return static_cast<std::size_t>(h);
  }

  // Renders as the paper writes IDs: "[0,2,255]"; the null string is "[]".
  std::string ToString() const {
    std::string s = "[";
    for (int i = 0; i < size_; ++i) {
      if (i > 0) s += ',';
      s += std::to_string(static_cast<int>(digits_[static_cast<std::size_t>(i)]));
    }
    s += ']';
    return s;
  }

  // The digits as one word, digit 0 in the most significant byte and zeros
  // past size(). Two strings of the same length are equal iff their words
  // are, so the word alone keys a table of one length.
  std::uint64_t Word() const {
    static_assert(kMaxDigits == 8, "Word() packs exactly eight digits");
    std::uint64_t w;
    std::memcpy(&w, digits_.data(), sizeof w);
    return ToBigEndian(w);
  }

  // Inverse of Word(): the `size`-digit string whose word is `word`.
  static DigitString FromWord(std::uint64_t word, int size) {
    TMESH_CHECK(size >= 0 && size <= kMaxDigits);
    TMESH_CHECK((word & ~PrefixMask(size)) == 0);
    DigitString s;
    s.size_ = static_cast<std::uint8_t>(size);
    s.SetWord(word);
    return s;
  }

 private:
  void SetWord(std::uint64_t w) {
    w = ToBigEndian(w);
    std::memcpy(digits_.data(), &w, sizeof w);
  }
  // Byte order swap on little-endian hosts; its own inverse.
  static std::uint64_t ToBigEndian(std::uint64_t w) {
    if constexpr (std::endian::native == std::endian::little) {
      return __builtin_bswap64(w);
    }
    return w;
  }
  // The top `len` digits of a word; len == 0 would shift by 64.
  static std::uint64_t PrefixMask(int len) {
    return len == 0 ? 0 : ~std::uint64_t{0} << (64 - 8 * len);
  }

  std::array<std::uint8_t, kMaxDigits> digits_;
  std::uint8_t size_;
};

// Nine bytes, byte-aligned: the 10^6-member key trees and directories hold
// millions of these, so the layout must not grow.
static_assert(sizeof(DigitString) == 9 && alignof(DigitString) == 1);

// Role aliases. A UserId is a full-length (D-digit) DigitString; a KeyId /
// EncryptionId is any prefix (the identification scheme of §2.4).
using UserId = DigitString;
using KeyId = DigitString;

struct DigitStringHash {
  std::size_t operator()(const DigitString& s) const { return s.Hash(); }
};

}  // namespace tmesh

template <>
struct std::hash<tmesh::DigitString> {
  std::size_t operator()(const tmesh::DigitString& s) const { return s.Hash(); }
};
