// Exhaustive tests of the four rule tables (Tables 1(a), 1(b), 2(a), 2(b))
// and the mode-strength order of Eq. 1.
#include <gtest/gtest.h>

#include <vector>

#include "core/mode.hpp"

namespace hlock {
namespace {

TEST(ModeStrength, MatchesEquationOne) {
  // ∅ < IR < R < U = IW < W
  EXPECT_LT(strength(Mode::kNone), strength(Mode::kIR));
  EXPECT_LT(strength(Mode::kIR), strength(Mode::kR));
  EXPECT_LT(strength(Mode::kR), strength(Mode::kU));
  EXPECT_EQ(strength(Mode::kU), strength(Mode::kIW));
  EXPECT_LT(strength(Mode::kIW), strength(Mode::kW));
}

TEST(ModeStrength, StrongerImpliesFewerCompatibleModes) {
  // Definition 1: A stronger than B iff A is compatible with fewer modes.
  auto compat_count = [](Mode m) {
    int n = 0;
    for (const Mode other : kRealModes)
      if (compatible(m, other)) ++n;
    return n;
  };
  EXPECT_EQ(compat_count(Mode::kIR), 4);
  EXPECT_EQ(compat_count(Mode::kR), 3);
  EXPECT_EQ(compat_count(Mode::kU), 2);
  EXPECT_EQ(compat_count(Mode::kIW), 2);
  EXPECT_EQ(compat_count(Mode::kW), 0);
  // Strictly decreasing along the strength order (ties share counts).
  EXPECT_GT(compat_count(Mode::kIR), compat_count(Mode::kR));
  EXPECT_GT(compat_count(Mode::kR), compat_count(Mode::kU));
  EXPECT_EQ(compat_count(Mode::kU), compat_count(Mode::kIW));
  EXPECT_GT(compat_count(Mode::kIW), compat_count(Mode::kW));
}

TEST(CompatibilityTable, IsSymmetric) {
  for (const Mode a : kRealModes)
    for (const Mode b : kRealModes)
      EXPECT_EQ(compatible(a, b), compatible(b, a))
          << a << " vs " << b;
}

TEST(CompatibilityTable, NoneIsCompatibleWithEverything) {
  for (const Mode m : kRealModes) {
    EXPECT_TRUE(compatible(Mode::kNone, m));
    EXPECT_TRUE(compatible(m, Mode::kNone));
  }
  EXPECT_TRUE(compatible(Mode::kNone, Mode::kNone));
}

TEST(CompatibilityTable, Table1aExhaustive) {
  // Table 1(a), X = conflict. Row-major over IR, R, U, IW, W.
  const bool conflict[5][5] = {
      // IR     R      U      IW     W
      {false, false, false, false, true},   // IR
      {false, false, false, true, true},    // R
      {false, false, true, true, true},     // U
      {false, true, true, false, true},     // IW
      {true, true, true, true, true},       // W
  };
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      EXPECT_EQ(compatible(kRealModes[a], kRealModes[b]), !conflict[a][b])
          << kRealModes[a] << " vs " << kRealModes[b];
    }
  }
}

TEST(GrantTables, Table1bNonTokenGrants) {
  // Rule 3.1: a non-token node owning M1 grants M2 iff compatible and
  // M1 >= M2. Exhaustive expectations for every (owned, requested) pair.
  struct Case {
    Mode owned;
    std::vector<Mode> grantable;
  };
  const std::vector<Case> cases = {
      {Mode::kNone, {}},
      {Mode::kIR, {Mode::kIR}},
      {Mode::kR, {Mode::kIR, Mode::kR}},
      {Mode::kU, {Mode::kIR, Mode::kR}},
      {Mode::kIW, {Mode::kIR, Mode::kIW}},
      {Mode::kW, {}},
  };
  for (const auto& c : cases) {
    for (const Mode req : kRealModes) {
      const bool expect = std::find(c.grantable.begin(), c.grantable.end(),
                                    req) != c.grantable.end();
      EXPECT_EQ(child_grantable(c.owned, req), expect)
          << "owned " << c.owned << " req " << req;
    }
  }
}

TEST(GrantTables, TokenGrantVsTransferPartition) {
  // Rule 3.2: for the token node, compatibility is necessary and
  // sufficient; owned < requested means token transfer, otherwise copy.
  for (const Mode owned :
       {Mode::kNone, Mode::kIR, Mode::kR, Mode::kU, Mode::kIW, Mode::kW}) {
    for (const Mode req : kRealModes) {
      const bool serviceable = compatible(owned, req);
      EXPECT_EQ(tokenable(owned, req) || token_copy_grantable(owned, req),
                serviceable)
          << owned << " " << req;
      // Mutually exclusive.
      EXPECT_FALSE(tokenable(owned, req) && token_copy_grantable(owned, req))
          << owned << " " << req;
    }
  }
  // Spot checks from the text.
  EXPECT_TRUE(tokenable(Mode::kNone, Mode::kR));     // Fig. 3(c)
  EXPECT_TRUE(token_copy_grantable(Mode::kR, Mode::kR));  // Fig. 2(c)
  EXPECT_TRUE(tokenable(Mode::kIR, Mode::kR));
  EXPECT_TRUE(tokenable(Mode::kR, Mode::kU));
  EXPECT_FALSE(tokenable(Mode::kU, Mode::kIW));  // incompatible
  EXPECT_FALSE(tokenable(Mode::kIW, Mode::kR));  // incompatible
}

TEST(QueueForwardTable, Table2aExhaustive) {
  // Parsed from the paper's 30-cell stream; rows = pending mode,
  // columns = IR R U IW W; true = queue.
  const Mode rows[6] = {Mode::kNone, Mode::kIR, Mode::kR,
                        Mode::kU,    Mode::kIW, Mode::kW};
  const bool queue_it[6][5] = {
      {false, false, false, false, false},  // ∅: always forward
      {true, false, false, false, false},   // IR
      {false, true, false, false, false},   // R
      {false, false, true, true, true},     // U
      {false, false, false, true, false},   // IW
      {true, true, true, true, true},       // W
  };
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 5; ++c) {
      const auto expected = queue_it[r][c] ? PendingAction::kQueue
                                           : PendingAction::kForward;
      EXPECT_EQ(queue_or_forward(rows[r], kRealModes[c]), expected)
          << "pending " << rows[r] << " req " << kRealModes[c];
    }
  }
}

TEST(FreezeTable, Table2bLegibleEntries) {
  // The eight entries that are legible in the paper's Table 2(b).
  EXPECT_EQ(frozen_for(Mode::kR, Mode::kIW), (ModeSet{Mode::kR, Mode::kU}));
  EXPECT_EQ(frozen_for(Mode::kU, Mode::kIW), (ModeSet{Mode::kR}));
  EXPECT_EQ(frozen_for(Mode::kIW, Mode::kR), (ModeSet{Mode::kIW}));
  EXPECT_EQ(frozen_for(Mode::kIW, Mode::kU), (ModeSet{Mode::kIW}));
  EXPECT_EQ(frozen_for(Mode::kIR, Mode::kW),
            (ModeSet{Mode::kIR, Mode::kR, Mode::kU, Mode::kIW}));
  EXPECT_EQ(frozen_for(Mode::kR, Mode::kW),
            (ModeSet{Mode::kIR, Mode::kR, Mode::kU}));
  EXPECT_EQ(frozen_for(Mode::kU, Mode::kW), (ModeSet{Mode::kIR, Mode::kR}));
  EXPECT_EQ(frozen_for(Mode::kIW, Mode::kW), (ModeSet{Mode::kIR, Mode::kIW}));
}

TEST(FreezeTable, ClosedFormProperties) {
  for (const Mode owned : kRealModes) {
    for (const Mode queued : kRealModes) {
      const ModeSet f = frozen_for(owned, queued);
      for (const Mode m : kRealModes) {
        const bool expect = compatible(m, owned) && !compatible(m, queued);
        EXPECT_EQ(f.contains(m), expect)
            << "owned " << owned << " queued " << queued << " mode " << m;
      }
      // A frozen mode is never the queued request's own remedy: freezing
      // modes compatible with the queued one would be self-defeating.
      for (const Mode m : kRealModes) {
        if (f.contains(m)) {
          EXPECT_FALSE(compatible(m, queued));
        }
      }
    }
  }
  // Column IR is empty: an IR request freezes nothing grantable.
  for (const Mode owned : kRealModes) {
    if (owned == Mode::kW) continue;  // nothing compatible with W anyway
    EXPECT_TRUE(frozen_for(owned, Mode::kIR).empty()) << owned;
  }
}

TEST(FreezeTable, PaperWorkedExample) {
  // §3.3: token owns IW, a request for R is queued -> IW is frozen.
  const ModeSet f = frozen_for(Mode::kIW, Mode::kR);
  EXPECT_TRUE(f.contains(Mode::kIW));
  EXPECT_EQ(f.size(), 1u);
}

TEST(ModeSet, BasicOperations) {
  ModeSet s;
  EXPECT_TRUE(s.empty());
  s.insert(Mode::kR);
  s.insert(Mode::kW);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(Mode::kR));
  EXPECT_FALSE(s.contains(Mode::kIR));
  s.erase(Mode::kR);
  EXPECT_FALSE(s.contains(Mode::kR));
  EXPECT_EQ(s.to_string(), "{W}");

  const ModeSet a{Mode::kIR, Mode::kR};
  const ModeSet b{Mode::kR, Mode::kU};
  EXPECT_EQ((a | b), (ModeSet{Mode::kIR, Mode::kR, Mode::kU}));
  EXPECT_EQ((a & b), (ModeSet{Mode::kR}));
  EXPECT_TRUE((ModeSet{Mode::kR}).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_EQ(ModeSet::from_raw(a.raw()), a);
}

TEST(ModeNames, RoundTrip) {
  EXPECT_STREQ(to_string(Mode::kIR), "IR");
  EXPECT_STREQ(to_string(Mode::kR), "R");
  EXPECT_STREQ(to_string(Mode::kU), "U");
  EXPECT_STREQ(to_string(Mode::kIW), "IW");
  EXPECT_STREQ(to_string(Mode::kW), "W");
  EXPECT_STREQ(to_string(Mode::kNone), "-");
}

TEST(Strongest, PicksByRankAndKeepsRealizableSetsExact) {
  EXPECT_EQ(strongest(Mode::kIR, Mode::kR), Mode::kR);
  EXPECT_EQ(strongest(Mode::kW, Mode::kIR), Mode::kW);
  EXPECT_EQ(strongest(Mode::kNone, Mode::kIR), Mode::kIR);
  // For every pairwise-compatible (realizable) set of held modes, the
  // strongest-mode summary must answer compatibility queries exactly —
  // this is the paper's "local knowledge is sufficient" claim (§3.4).
  std::vector<std::vector<Mode>> realizable;
  for (int mask = 1; mask < 32; ++mask) {
    std::vector<Mode> set;
    for (int i = 0; i < 5; ++i)
      if (mask & (1 << i)) set.push_back(kRealModes[i]);
    bool ok = true;
    for (std::size_t a = 0; a < set.size() && ok; ++a)
      for (std::size_t b = a + 1; b < set.size() && ok; ++b)
        ok = compatible(set[a], set[b]);
    if (ok) realizable.push_back(set);
  }
  ASSERT_FALSE(realizable.empty());
  for (const auto& set : realizable) {
    Mode summary = Mode::kNone;
    for (const Mode m : set) summary = strongest(summary, m);
    for (const Mode probe : kRealModes) {
      bool all = true;
      for (const Mode m : set) all = all && compatible(m, probe);
      EXPECT_EQ(compatible(summary, probe), all)
          << "summary " << summary << " probe " << probe;
    }
  }
}

}  // namespace
}  // namespace hlock
