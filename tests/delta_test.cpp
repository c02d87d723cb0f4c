// Tests for the delta language (§IV-A), canonicalization (§VI-B
// countermeasure) and the diff algorithms that derive deltas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "privedit/delta/delta.hpp"
#include "privedit/util/error.hpp"
#include "privedit/util/random.hpp"

namespace privedit::delta {
namespace {

TEST(Delta, PaperExampleTruncate) {
  // "=2 -5" turns "abcdefg" into "ab".
  const Delta d = Delta::parse("=2\t-5");
  EXPECT_EQ(d.apply("abcdefg"), "ab");
}

TEST(Delta, PaperExampleMixed) {
  // "=2 -3 +uv =2 +w" turns "abcdefg" into "abuvfgw".
  const Delta d = Delta::parse("=2\t-3\t+uv\t=2\t+w");
  EXPECT_EQ(d.apply("abcdefg"), "abuvfgw");
}

TEST(Delta, EmptyDeltaIsIdentity) {
  const Delta d = Delta::parse("");
  EXPECT_EQ(d.apply("hello"), "hello");
  EXPECT_TRUE(d.empty());
}

TEST(Delta, InsertIntoEmptyDocument) {
  const Delta d = Delta::parse("+hello");
  EXPECT_EQ(d.apply(""), "hello");
}

TEST(Delta, TrailingContentPreserved) {
  const Delta d = Delta::parse("+X");
  EXPECT_EQ(d.apply("abc"), "Xabc");
}

TEST(Delta, WireRoundTrip) {
  const char* cases[] = {"=2\t-5", "=2\t-3\t+uv\t=2\t+w", "+hello", "-7",
                         "=1\t+a\t=1\t+b"};
  for (const char* wire : cases) {
    EXPECT_EQ(Delta::parse(wire).to_wire(), wire);
  }
}

TEST(Delta, InsertEscaping) {
  Delta d;
  d.push(Op::insert("a\tb\\c"));
  d.push(Op::retain(1));
  const std::string wire = d.to_wire();
  EXPECT_EQ(wire, "+a\\tb\\\\c\t=1");
  const Delta parsed = Delta::parse(wire);
  ASSERT_EQ(parsed.ops().size(), 2u);
  EXPECT_EQ(parsed.ops()[0].text, "a\tb\\c");
}

TEST(Delta, ParseErrors) {
  EXPECT_THROW(Delta::parse("=x"), ParseError);
  EXPECT_THROW(Delta::parse("~3"), ParseError);
  EXPECT_THROW(Delta::parse("="), ParseError);
  EXPECT_THROW(Delta::parse("-"), ParseError);
  EXPECT_THROW(Delta::parse("+a\\"), ParseError);
  EXPECT_THROW(Delta::parse("+a\\x"), ParseError);
  EXPECT_THROW(Delta::parse("=2=3"), ParseError);
}

TEST(Delta, ApplyOutOfRangeThrows) {
  EXPECT_THROW(Delta::parse("=5").apply("abc"), Error);
  EXPECT_THROW(Delta::parse("-5").apply("abc"), Error);
  EXPECT_THROW(Delta::parse("=2\t-2").apply("abc"), Error);
}

TEST(Delta, NoOpSegmentsAreAccepted) {
  // "=0" and "+<empty>" are legal no-ops on the wire; both must apply as
  // the identity and survive a wire round trip.
  EXPECT_EQ(Delta::parse("=0").apply("abc"), "abc");
  EXPECT_EQ(Delta::parse("+").apply("abc"), "abc");
  EXPECT_EQ(Delta::parse("=0\t+\t=0").apply("abc"), "abc");
  const Delta d = Delta::parse("=0\t+\t-0");
  EXPECT_EQ(Delta::parse(d.to_wire()).apply("xy"), "xy");
  EXPECT_TRUE(d.canonicalized().ops().empty());
}

TEST(Delta, MalformedTabSequences) {
  // Runs of separators and segment boundaries that don't line up with the
  // grammar: bare tabs are tolerated as empty segments, but a count glued
  // to another op is not.
  EXPECT_EQ(Delta::parse("\t").apply("ab"), "ab");
  EXPECT_EQ(Delta::parse("\t\t\t").apply("ab"), "ab");
  EXPECT_EQ(Delta::parse("=1\t\t+z").apply("ab"), "azb");
  EXPECT_EQ(Delta::parse("\t=1").apply("ab"), "ab");
  EXPECT_THROW(Delta::parse("=1=2"), ParseError);
  EXPECT_THROW(Delta::parse("-1-2"), ParseError);
  EXPECT_THROW(Delta::parse("=1 \t=1"), ParseError);
}

TEST(Delta, CountExceedingDocLengthThrows) {
  // Counts inside the parse cap but beyond the document must throw from
  // apply()/invert(), never read out of bounds.
  const std::string doc = "0123456789";
  for (const char* wire : {"=11", "-11", "=5\t-6", "=10\t=1", "=4294967296"}) {
    EXPECT_THROW(Delta::parse(wire).apply(doc), Error) << wire;
    EXPECT_THROW(Delta::parse(wire).invert(doc), Error) << wire;
  }
}

TEST(Delta, SixtyFourBitCountOverflowRejected) {
  // Regression (found by the simulation harness's fuzz seams): a count
  // near SIZE_MAX made `cursor + count` wrap past the bounds check, and
  // apply() then silently duplicated document content via the trailing
  // `doc.substr(cursor)`. Such counts are now rejected at parse time.
  EXPECT_THROW(Delta::parse("=1\t-18446744073709551615"), ParseError);
  EXPECT_THROW(Delta::parse("=18446744073709551615"), ParseError);
  EXPECT_THROW(Delta::parse("-9223372036854775808"), ParseError);
  // Just above the 2^32 per-op cap: rejected. At the cap: parses (and
  // then fails in apply() against any real document).
  EXPECT_THROW(Delta::parse("=4294967297"), ParseError);
  EXPECT_NO_THROW(Delta::parse("=4294967296"));
  EXPECT_THROW(Delta::parse("=4294967296").apply("abc"), Error);
  // Counts wider than the integer type itself are plain parse errors.
  EXPECT_THROW(Delta::parse("=99999999999999999999999999"), ParseError);
}

TEST(Delta, InputSpanAndLengthChange) {
  const Delta d = Delta::parse("=2\t-3\t+uvw\t=1");
  EXPECT_EQ(d.input_span(), 6u);
  EXPECT_EQ(d.length_change(), 0);
  EXPECT_EQ(Delta::parse("+abc").length_change(), 3);
  EXPECT_EQ(Delta::parse("-2").length_change(), -2);
}

TEST(Canonicalize, MergesAdjacentOps) {
  const Delta d = Delta::parse("=1\t=2\t+ab\t+cd\t-1\t-2");
  const Delta canon = d.canonicalized();
  // delete is reordered before the adjacent insert
  EXPECT_EQ(canon.to_wire(), "=3\t-3\t+abcd");
}

TEST(Canonicalize, DropsZeroOps) {
  const Delta d = Delta::parse("=0\t+ab\t-0\t=0");
  EXPECT_EQ(d.canonicalized().to_wire(), "+ab");
}

TEST(Canonicalize, DropsTrailingRetain) {
  const Delta d = Delta::parse("+x\t=5");
  EXPECT_EQ(d.canonicalized().to_wire(), "+x");
}

TEST(Canonicalize, InsertDeleteReordered) {
  // insert-then-delete and delete-then-insert have identical effect;
  // canonical form is delete-first.
  const Delta a = Delta::parse("=2\t+XY\t-3");
  const Delta b = Delta::parse("=2\t-3\t+XY");
  EXPECT_EQ(a.canonicalized(), b.canonicalized());
  EXPECT_EQ(a.apply("abcdefg"), b.apply("abcdefg"));
}

TEST(Canonicalize, PreservesSemantics) {
  Xoshiro256 rng(77);
  const std::string doc = "the quick brown fox jumps over the lazy dog";
  for (int trial = 0; trial < 200; ++trial) {
    // Build a random valid delta over doc.
    Delta d;
    std::size_t cursor = 0;
    while (cursor < doc.size() && rng.below(5) != 0) {
      const auto choice = rng.below(3);
      if (choice == 0) {
        const std::size_t n = 1 + rng.below(doc.size() - cursor);
        d.push(Op::retain(n));
        cursor += n;
      } else if (choice == 1) {
        const std::size_t n = 1 + rng.below(doc.size() - cursor);
        d.push(Op::erase(n));
        cursor += n;
      } else {
        std::string text(1 + rng.below(5), 'x');
        d.push(Op::insert(std::move(text)));
      }
    }
    EXPECT_EQ(d.apply(doc), d.canonicalized().apply(doc)) << d.to_wire();
    EXPECT_TRUE(d.canonicalized().is_canonical());
  }
}

TEST(Canonicalize, CovertChannelExampleCollapses) {
  // §VI-B: a malicious client encodes Ord(q) as q single-char inserts
  // followed by q deletes followed by the real insert. Canonicalisation
  // merges the runs so the op-count no longer reveals Ord(q).
  auto encode_covert = [](int ord) {
    Delta d;
    for (int i = 0; i < ord; ++i) d.push(Op::insert("x"));
    d.push(Op::erase(static_cast<std::size_t>(ord)));
    d.push(Op::insert("q"));
    return d;
  };
  const Delta canon_a = encode_covert(3).canonicalized();
  const Delta canon_b = encode_covert(9).canonicalized();
  // Identical op structure: one delete, one insert (sizes differ only in
  // the merged insert length, which equals the visible edit).
  EXPECT_EQ(canon_a.ops().size(), canon_b.ops().size());
}

TEST(Compose, MatchesSequentialApplication) {
  const std::string doc = "abcdefg";
  const delta::Delta a = Delta::parse("=2\t-3\t+uv\t=2\t+w");  // abuvfgw
  const delta::Delta b = Delta::parse("=1\t-2\t+XY");            // aXYvfgw
  const delta::Delta ab = Delta::compose(a, b);
  EXPECT_EQ(ab.apply(doc), b.apply(a.apply(doc)));
}

TEST(Compose, IdentityAndAnnihilation) {
  const Delta id;
  const Delta ins = Delta::parse("+hello");
  EXPECT_EQ(Delta::compose(id, ins).apply(""), "hello");
  EXPECT_EQ(Delta::compose(ins, id).apply(""), "hello");
  // Insert then delete of the same text cancels entirely.
  const Delta del = Delta::parse("-5");
  EXPECT_TRUE(Delta::compose(ins, del).empty());
}

TEST(Compose, SecondDeletesBeyondFirstsSpan) {
  // b deletes original characters a never touched (implicit tail retain).
  const Delta a = Delta::parse("+X");       // Xabc
  const Delta b = Delta::parse("=2\t-2");  // Xa
  const Delta ab = Delta::compose(a, b);
  EXPECT_EQ(ab.apply("abc"), "Xa");
  EXPECT_EQ(ab.apply("abc"), b.apply(a.apply("abc")));
}

TEST(Compose, BothStreamsEndAtImplicitTail) {
  // Neither delta spells out a retain for the suffix; compose must line up
  // the two implicit tails instead of running off either op list.
  const Delta a = Delta::parse("=1\t+X");   // aXbcd
  const Delta b = Delta::parse("=3\t+Y");   // aXbYcd
  const Delta ab = Delta::compose(a, b);
  EXPECT_EQ(ab.apply("abcd"), "aXbYcd");
  EXPECT_EQ(ab.apply("abcd"), b.apply(a.apply("abcd")));
  EXPECT_TRUE(ab.is_canonical());
}

TEST(Compose, EmptyDeltasBothWays) {
  const Delta id;
  EXPECT_TRUE(Delta::compose(id, id).empty());
  const Delta edit = Delta::parse("=2\t-1\t+Z");
  EXPECT_EQ(Delta::compose(id, edit).apply("abcd"), edit.apply("abcd"));
  EXPECT_EQ(Delta::compose(edit, id).apply("abcd"), edit.apply("abcd"));
}

TEST(Compose, PartialAnnihilationAcrossOpBoundaries) {
  // b's single delete spans the tail of a's first insert, a retained
  // original char, and the head of a's second insert — compose must split
  // all three correctly.
  const Delta a = Delta::parse("+AB\t=1\t+CD");  // ABxCDyz
  const Delta b = Delta::parse("=1\t-3\t=3");    // ADyz
  const Delta ab = Delta::compose(a, b);
  EXPECT_EQ(ab.apply("xyz"), "ADyz");
  EXPECT_EQ(ab.apply("xyz"), b.apply(a.apply("xyz")));
  EXPECT_TRUE(ab.is_canonical());
}

TEST(Compose, DeleteEverythingInserted) {
  // b erases strictly more than a inserted, reaching into the original.
  const Delta a = Delta::parse("+hello\t=3");   // helloabc
  const Delta b = Delta::parse("-6\t=2");       // bc
  const Delta ab = Delta::compose(a, b);
  EXPECT_EQ(ab.apply("abc"), "bc");
  EXPECT_EQ(ab.apply("abc"), b.apply(a.apply("abc")));
}

TEST(Compose, KeystrokeBatching) {
  // Typical autosave batch: type three characters at a moving cursor.
  std::string doc = "hello world";
  const Delta k1 = Delta::parse("=5\t+,");
  const Delta k2 = Delta::parse("=6\t+!");
  const Delta k3 = Delta::parse("=13\t+!");
  Delta batch = Delta::compose(Delta::compose(k1, k2), k3);
  EXPECT_EQ(batch.apply(doc), k3.apply(k2.apply(k1.apply(doc))));
  EXPECT_TRUE(batch.is_canonical());
}

class ComposePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComposePropertyTest, RandomPairsComposeCorrectly) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::string doc;
    const std::size_t len = rng.below(40);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<char>('a' + rng.below(26)));
    }
    auto random_delta = [&rng](const std::string& base) {
      Delta d;
      std::size_t pos = 0;
      while (pos < base.size() && rng.below(4) != 0) {
        const auto choice = rng.below(3);
        if (choice == 0) {
          const std::size_t n = 1 + rng.below(base.size() - pos);
          d.push(Op::retain(n));
          pos += n;
        } else if (choice == 1) {
          const std::size_t n = 1 + rng.below(base.size() - pos);
          d.push(Op::erase(n));
          pos += n;
        } else {
          d.push(Op::insert(std::string(1 + rng.below(4), 'Z')));
        }
      }
      return d;
    };
    const Delta a = random_delta(doc);
    const std::string mid = a.apply(doc);
    const Delta b = random_delta(mid);
    const std::string expected = b.apply(mid);
    EXPECT_EQ(Delta::compose(a, b).apply(doc), expected)
        << "doc=" << doc << " a=" << a.to_wire() << " b=" << b.to_wire();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposePropertyTest,
                         ::testing::Values(600, 601, 602, 603, 604));

TEST(Transform, ConcurrentNonOverlappingEdits) {
  const std::string doc = "the quick brown fox";
  const Delta a = Delta::parse("=4\t+very ");      // alice inserts at 4
  const Delta b = Delta::parse("=10\t-5\t+red");  // bob recolours the fox
  const Delta a_prime = Delta::transform(a, b, true);
  const Delta b_prime = Delta::transform(b, a, false);
  const std::string via_b = a_prime.apply(b.apply(doc));
  const std::string via_a = b_prime.apply(a.apply(doc));
  EXPECT_EQ(via_a, via_b);
  EXPECT_EQ(via_a, "the very quick red fox");
}

TEST(Transform, SamePositionInsertTieBreak) {
  const std::string doc = "ab";
  const Delta a = Delta::parse("=1\t+X");
  const Delta b = Delta::parse("=1\t+Y");
  const std::string merged =
      Delta::transform(a, b, true).apply(b.apply(doc));
  const std::string merged2 =
      Delta::transform(b, a, false).apply(a.apply(doc));
  EXPECT_EQ(merged, merged2);
  EXPECT_EQ(merged, "aXYb");  // a wins the tie: its insert lands first
}

TEST(Transform, OverlappingDeletesConverge) {
  const std::string doc = "abcdefgh";
  const Delta a = Delta::parse("=2\t-4");  // delete cdef
  const Delta b = Delta::parse("=4\t-4");  // delete efgh
  const std::string via_b =
      Delta::transform(a, b, true).apply(b.apply(doc));
  const std::string via_a =
      Delta::transform(b, a, false).apply(a.apply(doc));
  EXPECT_EQ(via_a, via_b);
  EXPECT_EQ(via_a, "ab");  // union of the deletes
}

TEST(Transform, DeleteUnderConcurrentInsert) {
  const std::string doc = "abcd";
  const Delta a = Delta::parse("-4");       // alice deletes everything
  const Delta b = Delta::parse("=2\t+XY"); // bob inserts in the middle
  const std::string via_b =
      Delta::transform(a, b, true).apply(b.apply(doc));
  const std::string via_a =
      Delta::transform(b, a, false).apply(a.apply(doc));
  EXPECT_EQ(via_a, via_b);
  EXPECT_EQ(via_a, "XY");  // bob's insert survives alice's delete
}

class TransformPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TransformPropertyTest, Tp1ConvergenceOnRandomPairs) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    std::string doc;
    const std::size_t len = rng.below(30);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<char>('a' + rng.below(26)));
    }
    auto random_delta = [&rng](std::size_t base_len, char fill) {
      Delta d;
      std::size_t pos = 0;
      while (pos < base_len && rng.below(4) != 0) {
        const auto choice = rng.below(3);
        if (choice == 0) {
          const std::size_t n = 1 + rng.below(base_len - pos);
          d.push(Op::retain(n));
          pos += n;
        } else if (choice == 1) {
          const std::size_t n = 1 + rng.below(base_len - pos);
          d.push(Op::erase(n));
          pos += n;
        } else {
          d.push(Op::insert(std::string(1 + rng.below(4), fill)));
        }
      }
      return d;
    };
    const Delta a = random_delta(doc.size(), 'A');
    const Delta b = random_delta(doc.size(), 'B');
    const std::string via_b =
        Delta::transform(a, b, true).apply(b.apply(doc));
    const std::string via_a =
        Delta::transform(b, a, false).apply(a.apply(doc));
    EXPECT_EQ(via_a, via_b) << "doc=" << doc << " a=" << a.to_wire()
                            << " b=" << b.to_wire();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformPropertyTest,
                         ::testing::Values(700, 701, 702, 703, 704));

TEST(Compose, AssociativeUpToApplication) {
  Xoshiro256 rng(950);
  for (int trial = 0; trial < 50; ++trial) {
    std::string doc;
    const std::size_t len = 5 + rng.below(30);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<char>('a' + rng.below(26)));
    }
    auto random_delta = [&rng](const std::string& base, char fill) {
      Delta d;
      std::size_t pos = 0;
      while (pos < base.size() && rng.below(3) != 0) {
        const auto choice = rng.below(3);
        if (choice == 0) {
          const std::size_t nn = 1 + rng.below(base.size() - pos);
          d.push(Op::retain(nn));
          pos += nn;
        } else if (choice == 1) {
          const std::size_t nn = 1 + rng.below(base.size() - pos);
          d.push(Op::erase(nn));
          pos += nn;
        } else {
          d.push(Op::insert(std::string(1 + rng.below(3), fill)));
        }
      }
      return d;
    };
    const Delta a = random_delta(doc, 'X');
    const std::string d1 = a.apply(doc);
    const Delta b = random_delta(d1, 'Y');
    const std::string d2 = b.apply(d1);
    const Delta c = random_delta(d2, 'Z');
    const std::string expected = c.apply(d2);

    const Delta left = Delta::compose(Delta::compose(a, b), c);
    const Delta right = Delta::compose(a, Delta::compose(b, c));
    EXPECT_EQ(left.apply(doc), expected);
    EXPECT_EQ(right.apply(doc), expected);
    EXPECT_EQ(left.apply(doc), right.apply(doc));
  }
}

TEST(Invert, UndoesEdits) {
  const std::string doc = "abcdefg";
  const Delta d = Delta::parse("=2\t-3\t+uv\t=2\t+w");
  const std::string edited = d.apply(doc);
  const Delta undo = d.invert(doc);
  EXPECT_EQ(undo.apply(edited), doc);
}

TEST(Invert, PropertyOnRandomDeltas) {
  Xoshiro256 rng(900);
  for (int trial = 0; trial < 100; ++trial) {
    std::string doc;
    const std::size_t len = rng.below(50);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<char>('a' + rng.below(26)));
    }
    Delta d;
    std::size_t pos = 0;
    while (pos < doc.size() && rng.below(4) != 0) {
      const auto choice = rng.below(3);
      if (choice == 0) {
        const std::size_t n = 1 + rng.below(doc.size() - pos);
        d.push(Op::retain(n));
        pos += n;
      } else if (choice == 1) {
        const std::size_t n = 1 + rng.below(doc.size() - pos);
        d.push(Op::erase(n));
        pos += n;
      } else {
        d.push(Op::insert(std::string(1 + rng.below(4), 'Q')));
      }
    }
    const std::string edited = d.apply(doc);
    EXPECT_EQ(d.invert(doc).apply(edited), doc)
        << "doc=" << doc << " d=" << d.to_wire();
  }
}

TEST(Invert, UndoStack) {
  // A client undo stack: push (delta, inverse) pairs, pop to undo.
  std::string doc = "version zero";
  std::vector<Delta> undo_stack;
  const char* edits[] = {"=8\t-4\t+one", "+v1: ", "=4\t-1\t+2"};
  for (const char* wire : edits) {
    const Delta d = Delta::parse(wire);
    undo_stack.push_back(d.invert(doc));
    doc = d.apply(doc);
  }
  while (!undo_stack.empty()) {
    doc = undo_stack.back().apply(doc);
    undo_stack.pop_back();
  }
  EXPECT_EQ(doc, "version zero");
}

TEST(Invert, OutOfRangeThrows) {
  EXPECT_THROW(Delta::parse("=9").invert("abc"), Error);
  EXPECT_THROW(Delta::parse("-9").invert("abc"), Error);
}

TEST(Invert, RangeReaderReadsOnlyDeletedSpans) {
  // The O(edit) form: same inverse as invert(doc), but the base is read
  // one deleted span at a time.
  const std::string doc = "the quick brown fox";
  const Delta d = Delta::parse("=4\t-6\t+slow \t=6\t-3\t+cat");
  std::vector<std::pair<std::size_t, std::size_t>> reads;
  const Delta undo =
      d.invert(doc.size(), [&](std::size_t pos, std::size_t n) {
        reads.emplace_back(pos, n);
        return doc.substr(pos, n);
      });
  EXPECT_EQ(undo, d.invert(doc));
  EXPECT_EQ(undo.apply(d.apply(doc)), doc);
  const std::vector<std::pair<std::size_t, std::size_t>> deleted = {{4, 6},
                                                                    {16, 3}};
  EXPECT_EQ(reads, deleted);
  // An insert needs no text at all.
  const Delta insert = Delta::parse("=3\t+abc");
  EXPECT_EQ(insert.invert(doc.size(),
                          [](std::size_t, std::size_t) -> std::string {
                            ADD_FAILURE() << "an insert read the base";
                            return {};
                          }),
            insert.invert(doc));
  EXPECT_THROW(Delta::parse("=20").invert(doc.size(), nullptr), Error);
}

/// Random delta over a document of `len` chars: retains, deletes and
/// inserts mixed, including same-length delete+insert replaces and edits
/// at offset 0 and at the very end.
Delta random_edit(Xoshiro256& rng, std::size_t len) {
  Delta d;
  std::size_t pos = 0;
  while (true) {
    const auto choice = rng.below(5);
    if (choice == 0 && pos < len) {
      const std::size_t n = 1 + rng.below(len - pos);
      d.push(Op::retain(n));
      pos += n;
    } else if (choice == 1 && pos < len) {
      const std::size_t n = 1 + rng.below(std::min<std::size_t>(len - pos, 8));
      d.push(Op::erase(n));
      pos += n;
    } else if (choice == 2 && pos < len) {
      // A same-length replace: the cdelta shape of a re-encrypted unit.
      const std::size_t n = 1 + rng.below(std::min<std::size_t>(len - pos, 8));
      d.push(Op::erase(n));
      const char fill = static_cast<char>('A' + rng.below(26));
      d.push(Op::insert(std::string(n, fill)));
      pos += n;
    } else if (choice == 3) {
      d.push(Op::insert(std::string(1 + rng.below(6), 'Q')));
    } else if (rng.below(3) == 0) {
      break;
    }
    if (pos == len && rng.below(2) == 0) break;
  }
  return d;
}

TEST(ApplyInPlace, MatchesApplyOnRandomDeltas) {
  Xoshiro256 rng(1601);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string doc;
    const std::size_t len = rng.below(64);
    for (std::size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<char>('a' + rng.below(26)));
    }
    // Raw and canonical forms both: the raw one keeps insert-before-delete
    // orders and adjacent same-kind ops.
    const Delta raw = random_edit(rng, len);
    for (const Delta& d : {raw, raw.canonicalized()}) {
      std::string in_place = doc;
      d.apply_in_place(in_place);
      ASSERT_EQ(in_place, d.apply(doc))
          << "doc=" << doc << " d=" << d.to_wire();
    }
  }
}

TEST(ApplyInPlace, EdgesOfTheDocument) {
  const auto applied = [](const char* wire, std::string doc) {
    Delta::parse(wire).apply_in_place(doc);
    return doc;
  };
  EXPECT_EQ(applied("-3\t+XYZ", "abcdef"), "XYZdef");  // offset 0, same size
  EXPECT_EQ(applied("+>", "abc"), ">abc");
  EXPECT_EQ(applied("=3\t+<", "abc"), "abc<");  // at the end
  EXPECT_EQ(applied("=4\t-2\t+YZ", "abcdef"), "abcdYZ");
  EXPECT_EQ(applied("-6", "abcdef"), "");
  EXPECT_EQ(applied("+new", ""), "new");
  EXPECT_EQ(applied("", "same"), "same");
  EXPECT_EQ(applied("+a\t+b\t-1\t+c", "xyz"), "abcyz");
  EXPECT_EQ(applied("=2\t-3\t+uv\t=2\t+w", "abcdefg"), "abuvfgw");
}

TEST(ApplyInPlace, OutOfRangeThrowsAndLeavesTheInputUntouched) {
  for (const char* wire :
       {"=7", "-7", "=3\t-4", "-1\t+X\t=9", "=2\t+X\t-1\t=2\t-2",
        "+ok\t=6\t-1"}) {
    std::string doc = "abcdef";
    EXPECT_THROW(Delta::parse(wire).apply_in_place(doc), Error) << wire;
    EXPECT_EQ(doc, "abcdef") << wire;
  }
  // The overflow-proof bound: a count near SIZE_MAX must not wrap.
  std::string doc = "abc";
  const Delta huge({Op::retain(1), Op::erase(SIZE_MAX)});
  EXPECT_THROW(huge.apply_in_place(doc), Error);
  EXPECT_EQ(doc, "abc");
}

TEST(AffixDiff, BasicCases) {
  EXPECT_EQ(affix_diff("abc", "abc").to_wire(), "");
  EXPECT_EQ(affix_diff("", "abc").to_wire(), "+abc");
  EXPECT_EQ(affix_diff("abc", "").to_wire(), "-3");
  EXPECT_EQ(affix_diff("abcdef", "abXYef").apply("abcdef"), "abXYef");
  EXPECT_EQ(affix_diff("aaa", "aa").apply("aaa"), "aa");
}

TEST(AffixDiff, OverlappingAffixes) {
  // prefix/suffix overlap ("aaa" -> "aaaa") must not double-count.
  EXPECT_EQ(affix_diff("aaa", "aaaa").apply("aaa"), "aaaa");
  EXPECT_EQ(affix_diff("aaaa", "aaa").apply("aaaa"), "aaa");
  EXPECT_EQ(affix_diff("abab", "ab").apply("abab"), "ab");
}

TEST(MyersDiff, ClassicExample) {
  // The canonical ABCABBA -> CBABAC example has edit distance 5.
  const Delta d = myers_diff("ABCABBA", "CBABAC");
  EXPECT_EQ(d.apply("ABCABBA"), "CBABAC");
  std::size_t cost = 0;
  for (const Op& op : d.ops()) {
    if (op.kind != OpKind::kRetain) cost += op.count;
  }
  EXPECT_EQ(cost, 5u);
}

TEST(MyersDiff, EqualAndEmptyInputs) {
  EXPECT_TRUE(myers_diff("same", "same").empty());
  EXPECT_EQ(myers_diff("", "ab").apply(""), "ab");
  EXPECT_EQ(myers_diff("ab", "").apply("ab"), "");
  EXPECT_TRUE(myers_diff("", "").empty());
}

class DiffPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffPropertyTest, ApplyDiffReproducesTarget) {
  Xoshiro256 rng(GetParam());
  const char alphabet[] = "abcd";  // small alphabet forces real interleaving
  for (int trial = 0; trial < 50; ++trial) {
    std::string a, b;
    const std::size_t na = rng.below(60);
    const std::size_t nb = rng.below(60);
    for (std::size_t i = 0; i < na; ++i) a.push_back(alphabet[rng.below(4)]);
    for (std::size_t i = 0; i < nb; ++i) b.push_back(alphabet[rng.below(4)]);

    const Delta m = myers_diff(a, b);
    EXPECT_EQ(m.apply(a), b) << "a=" << a << " b=" << b;
    const Delta f = affix_diff(a, b);
    EXPECT_EQ(f.apply(a), b) << "a=" << a << " b=" << b;

    // Myers is minimal, so its cost never exceeds the affix replace cost.
    auto cost = [](const Delta& d) {
      std::size_t c = 0;
      for (const Op& op : d.ops()) {
        if (op.kind != OpKind::kRetain) c += op.count;
      }
      return c;
    };
    EXPECT_LE(cost(m), cost(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(100, 200, 300, 400, 500));

TEST(MyersDiff, FallsBackAboveMaxCost) {
  Xoshiro256 rng(12);
  std::string a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(static_cast<char>('a' + rng.below(26)));
    b.push_back(static_cast<char>('a' + rng.below(26)));
  }
  const Delta d = myers_diff(a, b, /*max_cost=*/10);
  EXPECT_EQ(d.apply(a), b);
}

TEST(MyersDiff, EditSessionShapedInputs) {
  // Realistic editing: a few localized changes in a longer document.
  const std::string before =
      "It was the best of times, it was the worst of times, it was the age "
      "of wisdom, it was the age of foolishness.";
  const std::string after =
      "It was the best of days, it was the worst of times, it was the epoch "
      "of wisdom, it was the age of folly.";
  const Delta d = myers_diff(before, after);
  EXPECT_EQ(d.apply(before), after);
  // Edits are local, so most of the document is retained.
  std::size_t retained = 0;
  for (const Op& op : d.ops()) {
    if (op.kind == OpKind::kRetain) retained += op.count;
  }
  EXPECT_GT(retained, before.size() / 2);
}

}  // namespace
}  // namespace privedit::delta
