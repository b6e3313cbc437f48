#include "common/digit_string.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace tmesh {
namespace {

TEST(DigitString, EmptyIsNullString) {
  DigitString s;
  EXPECT_EQ(s.size(), 0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.ToString(), "[]");
}

TEST(DigitString, ConstructionAndDigits) {
  DigitString s{0, 2, 255};
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.digit(0), 0);
  EXPECT_EQ(s.digit(1), 2);
  EXPECT_EQ(s.digit(2), 255);
  EXPECT_EQ(s.ToString(), "[0,2,255]");
}

TEST(DigitString, PrefixSemanticsMatchPaper) {
  // "an ID is a prefix of itself, and a null string is a prefix of any ID."
  DigitString id{2, 1};
  EXPECT_TRUE(id.IsPrefixOf(id));
  EXPECT_TRUE(DigitString{}.IsPrefixOf(id));
  EXPECT_TRUE((DigitString{2}).IsPrefixOf(id));
  EXPECT_FALSE((DigitString{1}).IsPrefixOf(id));
  EXPECT_FALSE((DigitString{2, 1, 0}).IsPrefixOf(id));
}

TEST(DigitString, PrefixExtractsLeadingDigits) {
  DigitString id{3, 1, 4, 1, 5};
  EXPECT_EQ(id.Prefix(0), DigitString{});
  EXPECT_EQ(id.Prefix(2), (DigitString{3, 1}));
  EXPECT_EQ(id.Prefix(5), id);
}

TEST(DigitString, ChildAndParentRoundTrip) {
  DigitString p{7};
  DigitString c = p.Child(9);
  EXPECT_EQ(c, (DigitString{7, 9}));
  EXPECT_EQ(c.Parent(), p);
  EXPECT_EQ(c.LastDigit(), 9);
}

TEST(DigitString, CommonPrefixLen) {
  DigitString a{1, 2, 3};
  DigitString b{1, 2, 4};
  EXPECT_EQ(a.CommonPrefixLen(b), 2);
  EXPECT_EQ(a.CommonPrefixLen(a), 3);
  EXPECT_EQ(a.CommonPrefixLen(DigitString{}), 0);
  EXPECT_EQ(a.CommonPrefixLen(DigitString{9}), 0);
}

TEST(DigitString, OrderingIsShorterPrefixFirst) {
  DigitString a{1};
  DigitString ab{1, 0};
  EXPECT_LT(a, ab);
  EXPECT_LT(ab, (DigitString{1, 1}));
  EXPECT_LT(DigitString{}, a);
}

TEST(DigitString, SetDigitMutates) {
  DigitString s{0, 0};
  s.SetDigit(1, 5);
  EXPECT_EQ(s, (DigitString{0, 5}));
}

TEST(DigitString, HashDistinguishesLengthAndContent) {
  std::unordered_set<DigitString> set;
  set.insert(DigitString{});
  set.insert(DigitString{0});
  set.insert(DigitString{0, 0});
  set.insert(DigitString{1});
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.count(DigitString{0, 0}) > 0);
}

TEST(DigitString, AppendRejectsOutOfRangeDigit) {
  DigitString s;
  EXPECT_THROW(s.Append(-1), std::logic_error);
  EXPECT_THROW(s.Append(kMaxBase), std::logic_error);
}

TEST(DigitString, AppendRejectsOverflowLength) {
  DigitString s;
  for (int i = 0; i < kMaxDigits; ++i) s.Append(0);
  EXPECT_THROW(s.Append(0), std::logic_error);
}

TEST(DigitString, FromWordRejectsDigitsPastTheLength) {
  const std::uint64_t word = DigitString{1, 2}.Word();
  EXPECT_EQ(DigitString::FromWord(word, 2), (DigitString{1, 2}));
  EXPECT_THROW(DigitString::FromWord(word, 1), std::logic_error);
  EXPECT_THROW(DigitString::FromWord(0, kMaxDigits + 1), std::logic_error);
}

// Byte-loop references: the comparison operations' definitions, one digit
// at a time, through the public accessors only.
bool RefEqual(const DigitString& a, const DigitString& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (a.digit(i) != b.digit(i)) return false;
  }
  return true;
}

bool RefLess(const DigitString& a, const DigitString& b) {
  const int n = std::min(a.size(), b.size());
  for (int i = 0; i < n; ++i) {
    if (a.digit(i) != b.digit(i)) return a.digit(i) < b.digit(i);
  }
  return a.size() < b.size();
}

int RefCommonPrefixLen(const DigitString& a, const DigitString& b) {
  const int n = std::min(a.size(), b.size());
  for (int i = 0; i < n; ++i) {
    if (a.digit(i) != b.digit(i)) return i;
  }
  return n;
}

bool RefIsPrefixOf(const DigitString& a, const DigitString& b) {
  return a.size() <= b.size() && RefCommonPrefixLen(a, b) == a.size();
}

// FNV-1a over (size, digits): the hash unordered containers of IDs iterate
// by, so it must never change.
std::size_t RefHash(const DigitString& s) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(s.size()));
  for (int i = 0; i < s.size(); ++i) {
    mix(static_cast<std::uint64_t>(s.digit(i)));
  }
  return static_cast<std::size_t>(h);
}

// Every pair from a pool of strings of lengths 0-8 over the extreme digits
// {0, 1, 254, 255}, built through every constructor and mutator that can
// shorten or rewrite a string (Prefix, Parent, SetDigit, FromDigits), agrees
// with the byte-loop references on ==, <, IsPrefixOf, CommonPrefixLen and
// Hash; its packed word decides equality at equal length and round-trips
// through FromWord.
TEST(DigitString, ComparisonsMatchByteLoopReference) {
  const int kDigits[] = {0, 1, 254, 255};
  std::vector<DigitString> pool;
  // All strings of length 0-3.
  pool.push_back(DigitString{});
  for (std::size_t from = 0, len = 1; len <= 3; ++len) {
    const std::size_t to = pool.size();
    for (std::size_t i = from; i < to; ++i) {
      for (int d : kDigits) pool.push_back(pool[i].Child(d));
    }
    from = to;
  }
  // Long strings: random full-length strings, every prefix of each (by
  // Prefix and by repeated Parent), and every prefix with its last digit
  // rewritten to each other digit of the set.
  Rng rng(2005);
  for (int s = 0; s < 24; ++s) {
    std::uint8_t raw[kMaxDigits];
    for (std::uint8_t& d : raw) {
      d = static_cast<std::uint8_t>(kDigits[rng.UniformInt(0, 3)]);
    }
    const DigitString full = DigitString::FromDigits(raw, kMaxDigits);
    DigitString up = full;
    for (int len = kMaxDigits; len >= 1; --len) {
      const DigitString p = full.Prefix(len);
      EXPECT_TRUE(RefEqual(p, up));
      pool.push_back(up);
      for (int d : kDigits) {
        if (d == p.LastDigit()) continue;
        DigitString m = p;
        m.SetDigit(len - 1, d);
        pool.push_back(m);
      }
      up = up.Parent();
    }
  }

  std::size_t mismatches = 0;
  std::string first;
  for (const DigitString& a : pool) {
    if (a.Hash() != RefHash(a)) {
      ++mismatches;
      if (first.empty()) first = "Hash " + a.ToString();
    }
    if (DigitString::FromWord(a.Word(), a.size()) != a) {
      ++mismatches;
      if (first.empty()) first = "FromWord " + a.ToString();
    }
    for (const DigitString& b : pool) {
      const bool ok = (a == b) == RefEqual(a, b) &&
                      (a != b) == !RefEqual(a, b) &&
                      (a < b) == RefLess(a, b) &&
                      a.IsPrefixOf(b) == RefIsPrefixOf(a, b) &&
                      a.CommonPrefixLen(b) == RefCommonPrefixLen(a, b) &&
                      (a.size() != b.size() ||
                       (a.Word() == b.Word()) == RefEqual(a, b));
      if (!ok) {
        ++mismatches;
        if (first.empty()) first = a.ToString() + " vs " + b.ToString();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
  EXPECT_GT(pool.size(), 800u);
}

class DigitStringPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DigitStringPropertyTest, PrefixRelationIsConsistentWithCommonPrefix) {
  const int base = GetParam();
  Rng rng(42 + static_cast<std::uint64_t>(base));
  for (int iter = 0; iter < 500; ++iter) {
    DigitString a, b;
    int la = static_cast<int>(rng.UniformInt(0, kMaxDigits));
    int lb = static_cast<int>(rng.UniformInt(0, kMaxDigits));
    for (int i = 0; i < la; ++i) a.Append(static_cast<int>(rng.UniformInt(0, base - 1)));
    for (int i = 0; i < lb; ++i) b.Append(static_cast<int>(rng.UniformInt(0, base - 1)));
    bool prefix = a.IsPrefixOf(b);
    EXPECT_EQ(prefix, a.CommonPrefixLen(b) == a.size());
    if (prefix) {
      EXPECT_EQ(b.Prefix(a.size()), a);
    }
    // Hash/equality agreement.
    if (a == b) {
      EXPECT_EQ(a.Hash(), b.Hash());
    }
    // Total order sanity: exactly one of <, >, == holds.
    int rel = (a < b ? 1 : 0) + (b < a ? 1 : 0) + (a == b ? 1 : 0);
    EXPECT_EQ(rel, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Bases, DigitStringPropertyTest,
                         ::testing::Values(2, 4, 16, 256));

}  // namespace
}  // namespace tmesh
