// MVCC engine semantics: visibility, snapshot isolation, first-committer
// wins, read-committed, serializable certification, tombstones, aborts.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "engine/engine.h"

namespace preemptdb::engine {
namespace {

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override { table_ = engine_.CreateTable("t"); }

  Rc Put(index::Key k, const std::string& v) {
    Transaction* txn = engine_.Begin();
    Rc rc = txn->Insert(table_, k, v);
    if (!IsOk(rc)) {
      txn->Abort();
      return rc;
    }
    return txn->Commit();
  }

  Rc Up(index::Key k, const std::string& v) {
    Transaction* txn = engine_.Begin();
    Rc rc = txn->Update(table_, k, v);
    if (!IsOk(rc)) {
      txn->Abort();
      return rc;
    }
    return txn->Commit();
  }

  std::string Get(index::Key k, IsolationLevel iso = IsolationLevel::kSnapshot,
                  Rc* read_rc = nullptr) {
    Transaction* txn = engine_.Begin(iso);
    Slice s;
    Rc rc = txn->Read(table_, k, &s);
    std::string result = IsOk(rc) ? s.ToString() : "";
    txn->Commit();
    if (read_rc != nullptr) *read_rc = rc;
    return result;
  }

  Engine engine_;
  Table* table_ = nullptr;
};

TEST_F(MvccTest, InsertAndRead) {
  EXPECT_EQ(Put(1, "v1"), Rc::kOk);
  EXPECT_EQ(Get(1), "v1");
}

TEST_F(MvccTest, ReadMissingKey) {
  Rc rc;
  Get(99, IsolationLevel::kSnapshot, &rc);
  EXPECT_EQ(rc, Rc::kNotFound);
}

TEST_F(MvccTest, UpdateCreatesNewVersion) {
  Put(1, "v1");
  EXPECT_EQ(Up(1, "v2"), Rc::kOk);
  EXPECT_EQ(Get(1), "v2");
}

TEST_F(MvccTest, UpdateMissingKeyFails) {
  EXPECT_EQ(Up(42, "x"), Rc::kNotFound);
}

TEST_F(MvccTest, DuplicateInsertRejected) {
  Put(1, "v1");
  EXPECT_EQ(Put(1, "v2"), Rc::kKeyExists);
  EXPECT_EQ(Get(1), "v1");
}

TEST_F(MvccTest, ReadYourOwnWrites) {
  Transaction* txn = engine_.Begin();
  ASSERT_EQ(txn->Insert(table_, 5, "mine"), Rc::kOk);
  Slice s;
  ASSERT_EQ(txn->Read(table_, 5, &s), Rc::kOk);
  EXPECT_EQ(s.ToString(), "mine");
  ASSERT_EQ(txn->Update(table_, 5, "mine2"), Rc::kOk);
  ASSERT_EQ(txn->Read(table_, 5, &s), Rc::kOk);
  EXPECT_EQ(s.ToString(), "mine2");
  EXPECT_EQ(txn->Commit(), Rc::kOk);
  EXPECT_EQ(Get(5), "mine2");
}

TEST_F(MvccTest, SnapshotIgnoresLaterCommits) {
  Put(1, "old");
  Transaction* reader = engine_.Begin();  // snapshot taken here
  Slice s;
  // A later committed update (from another context/thread) must stay
  // invisible to the open snapshot.
  std::thread writer([&] { EXPECT_EQ(Up(1, "new"), Rc::kOk); });
  writer.join();
  ASSERT_EQ(reader->Read(table_, 1, &s), Rc::kOk);
  EXPECT_EQ(s.ToString(), "old");
  EXPECT_EQ(reader->Commit(), Rc::kOk);
  EXPECT_EQ(Get(1), "new");
}

TEST_F(MvccTest, ReadCommittedSeesLatest) {
  Put(1, "old");
  Transaction* reader = engine_.Begin(IsolationLevel::kReadCommitted);
  std::thread writer([&] { EXPECT_EQ(Up(1, "new"), Rc::kOk); });
  writer.join();
  Slice s;
  ASSERT_EQ(reader->Read(table_, 1, &s), Rc::kOk);
  EXPECT_EQ(s.ToString(), "new");
  reader->Commit();
}

TEST_F(MvccTest, UncommittedWritesInvisibleToOthers) {
  Put(1, "committed");
  Transaction* writer = engine_.Begin();
  ASSERT_EQ(writer->Update(table_, 1, "dirty"), Rc::kOk);
  // Another thread (its own context) must not see the dirty version, even
  // under read-committed.
  std::thread t([&] {
    EXPECT_EQ(Get(1, IsolationLevel::kReadCommitted), "committed");
  });
  t.join();
  writer->Abort();
  EXPECT_EQ(Get(1), "committed");
}

TEST_F(MvccTest, WriteWriteConflictAborts) {
  Put(1, "base");
  Transaction* a = engine_.Begin();
  ASSERT_EQ(a->Update(table_, 1, "a"), Rc::kOk);
  std::thread t([&] {
    Transaction* b = engine_.Begin();
    Rc rc = b->Update(table_, 1, "b");
    EXPECT_EQ(rc, Rc::kAbortWriteConflict);
    b->Abort();
  });
  t.join();
  EXPECT_EQ(a->Commit(), Rc::kOk);
  EXPECT_EQ(Get(1), "a");
}

TEST_F(MvccTest, FirstCommitterWinsOnStaleSnapshot) {
  Put(1, "base");
  Transaction* stale = engine_.Begin();
  Slice s;
  ASSERT_EQ(stale->Read(table_, 1, &s), Rc::kOk);  // snapshot pinned
  std::thread t([&] { EXPECT_EQ(Up(1, "winner"), Rc::kOk); });
  t.join();
  // The stale transaction now tries to write the same record: under SI the
  // newer committed version must abort it (lost-update prevention).
  EXPECT_EQ(stale->Update(table_, 1, "loser"), Rc::kAbortWriteConflict);
  stale->Abort();
  EXPECT_EQ(Get(1), "winner");
}

TEST_F(MvccTest, AbortRollsBackAllWrites) {
  Put(1, "keep1");
  Put(2, "keep2");
  Transaction* txn = engine_.Begin();
  ASSERT_EQ(txn->Update(table_, 1, "gone1"), Rc::kOk);
  ASSERT_EQ(txn->Update(table_, 2, "gone2"), Rc::kOk);
  ASSERT_EQ(txn->Insert(table_, 3, "gone3"), Rc::kOk);
  txn->Abort();
  EXPECT_EQ(Get(1), "keep1");
  EXPECT_EQ(Get(2), "keep2");
  Rc rc;
  Get(3, IsolationLevel::kSnapshot, &rc);
  EXPECT_EQ(rc, Rc::kNotFound);
}

TEST_F(MvccTest, DeleteHidesRecord) {
  Put(1, "v");
  Transaction* txn = engine_.Begin();
  ASSERT_EQ(txn->Delete(table_, 1), Rc::kOk);
  ASSERT_EQ(txn->Commit(), Rc::kOk);
  Rc rc;
  Get(1, IsolationLevel::kSnapshot, &rc);
  EXPECT_EQ(rc, Rc::kNotFound);
}

TEST_F(MvccTest, DeleteVisibleToOldSnapshot) {
  Put(1, "v");
  Transaction* reader = engine_.Begin();
  std::thread t([&] {
    Transaction* txn = engine_.Begin();
    EXPECT_EQ(txn->Delete(table_, 1), Rc::kOk);
    EXPECT_EQ(txn->Commit(), Rc::kOk);
  });
  t.join();
  Slice s;
  EXPECT_EQ(reader->Read(table_, 1, &s), Rc::kOk)
      << "old snapshot must still see the record";
  reader->Commit();
}

TEST_F(MvccTest, ReinsertAfterDelete) {
  Put(1, "first");
  Transaction* txn = engine_.Begin();
  ASSERT_EQ(txn->Delete(table_, 1), Rc::kOk);
  ASSERT_EQ(txn->Commit(), Rc::kOk);
  EXPECT_EQ(Put(1, "second"), Rc::kOk);
  EXPECT_EQ(Get(1), "second");
}

TEST_F(MvccTest, DoubleDeleteFails) {
  Put(1, "v");
  Transaction* t1 = engine_.Begin();
  ASSERT_EQ(t1->Delete(table_, 1), Rc::kOk);
  ASSERT_EQ(t1->Commit(), Rc::kOk);
  Transaction* t2 = engine_.Begin();
  EXPECT_EQ(t2->Delete(table_, 1), Rc::kNotFound);
  t2->Commit();
}

TEST_F(MvccTest, ScanSeesOnlyVisible) {
  for (index::Key k = 0; k < 10; ++k) Put(k, "v" + std::to_string(k));
  // Delete evens.
  for (index::Key k = 0; k < 10; k += 2) {
    Transaction* txn = engine_.Begin();
    ASSERT_EQ(txn->Delete(table_, k), Rc::kOk);
    ASSERT_EQ(txn->Commit(), Rc::kOk);
  }
  Transaction* txn = engine_.Begin();
  std::vector<index::Key> seen;
  txn->Scan(table_, 0, 100, [&](index::Key k, Slice) {
    seen.push_back(k);
    return true;
  });
  txn->Commit();
  EXPECT_EQ(seen, (std::vector<index::Key>{1, 3, 5, 7, 9}));
}

TEST_F(MvccTest, ScanSnapshotStability) {
  for (index::Key k = 0; k < 100; ++k) Put(k, "x");
  Transaction* reader = engine_.Begin();
  // Concurrent deletions must not affect the open snapshot's scan.
  std::thread t([&] {
    for (index::Key k = 0; k < 100; k += 2) {
      Transaction* txn = engine_.Begin();
      EXPECT_EQ(txn->Delete(table_, k), Rc::kOk);
      EXPECT_EQ(txn->Commit(), Rc::kOk);
    }
  });
  t.join();
  uint64_t n = 0;
  reader->Scan(table_, 0, 1000, [&](index::Key, Slice) {
    ++n;
    return true;
  });
  reader->Commit();
  EXPECT_EQ(n, 100u);
}

TEST_F(MvccTest, SerializableDetectsOverwrittenRead) {
  Put(1, "base");
  Transaction* a = engine_.Begin(IsolationLevel::kSerializable);
  Slice s;
  ASSERT_EQ(a->Read(table_, 1, &s), Rc::kOk);
  std::thread t([&] { EXPECT_EQ(Up(1, "newer"), Rc::kOk); });
  t.join();
  // `a` read a value that has since been overwritten; writing anything and
  // committing must fail certification.
  Transaction* unused = nullptr;
  (void)unused;
  ASSERT_EQ(a->Insert(table_, 2, "out"), Rc::kOk);
  EXPECT_EQ(a->Commit(), Rc::kAbortSerialization);
}

TEST_F(MvccTest, SerializablePreventsWriteSkew) {
  // Classic write skew: invariant x + y >= 1; both txns read both keys and
  // each zeroes a different one. Under SI both would commit; serializable
  // must abort one.
  Put(10, "1");
  Put(11, "1");
  Transaction* a = engine_.Begin(IsolationLevel::kSerializable);
  Slice s;
  ASSERT_EQ(a->Read(table_, 10, &s), Rc::kOk);
  ASSERT_EQ(a->Read(table_, 11, &s), Rc::kOk);
  Rc rc_b = Rc::kError;
  std::thread t([&] {
    Transaction* b = engine_.Begin(IsolationLevel::kSerializable);
    Slice s2;
    EXPECT_EQ(b->Read(table_, 10, &s2), Rc::kOk);
    EXPECT_EQ(b->Read(table_, 11, &s2), Rc::kOk);
    EXPECT_EQ(b->Update(table_, 11, "0"), Rc::kOk);
    rc_b = b->Commit();
    if (!IsOk(rc_b)) b = nullptr;
  });
  t.join();
  ASSERT_EQ(a->Update(table_, 10, "0"), Rc::kOk);
  Rc rc_a = a->Commit();
  EXPECT_TRUE(IsOk(rc_a) != IsOk(rc_b))
      << "exactly one of the write-skew transactions must survive";
}

TEST_F(MvccTest, SnapshotAllowsWriteSkew) {
  // Negative control for the test above: plain SI admits write skew.
  Put(10, "1");
  Put(11, "1");
  Transaction* a = engine_.Begin(IsolationLevel::kSnapshot);
  Slice s;
  ASSERT_EQ(a->Read(table_, 10, &s), Rc::kOk);
  ASSERT_EQ(a->Read(table_, 11, &s), Rc::kOk);
  Rc rc_b = Rc::kError;
  std::thread t([&] {
    Transaction* b = engine_.Begin(IsolationLevel::kSnapshot);
    Slice s2;
    EXPECT_EQ(b->Read(table_, 10, &s2), Rc::kOk);
    EXPECT_EQ(b->Update(table_, 11, "0"), Rc::kOk);
    rc_b = b->Commit();
  });
  t.join();
  ASSERT_EQ(a->Update(table_, 10, "0"), Rc::kOk);
  EXPECT_EQ(a->Commit(), Rc::kOk);
  EXPECT_EQ(rc_b, Rc::kOk);
}

TEST_F(MvccTest, CommitTimestampsMonotone) {
  uint64_t before = engine_.ReadTs();
  Put(1, "a");
  Put(2, "b");
  EXPECT_GE(engine_.ReadTs(), before + 2);
}

TEST_F(MvccTest, EmptyTransactionCommits) {
  Transaction* txn = engine_.Begin();
  EXPECT_EQ(txn->Commit(), Rc::kOk);
}

TEST_F(MvccTest, CommitsAndAbortsCounted) {
  uint64_t c0 = engine_.commits.load();
  uint64_t a0 = engine_.aborts.load();
  Put(1, "x");
  Transaction* txn = engine_.Begin();
  txn->Insert(table_, 2, "y");
  txn->Abort();
  EXPECT_EQ(engine_.commits.load(), c0 + 1);
  EXPECT_EQ(engine_.aborts.load(), a0 + 1);
}

TEST_F(MvccTest, LargePayloadRoundTrip) {
  std::string big(10000, 'z');
  big[123] = 'Q';
  EXPECT_EQ(Put(1, big), Rc::kOk);
  EXPECT_EQ(Get(1), big);
}

TEST_F(MvccTest, ManyVersionsChainTraversal) {
  Put(1, "v0");
  for (int i = 1; i <= 200; ++i) {
    ASSERT_EQ(Up(1, "v" + std::to_string(i)), Rc::kOk);
  }
  EXPECT_EQ(Get(1), "v200");
}

class IsolationParamTest
    : public ::testing::TestWithParam<IsolationLevel> {};

TEST_P(IsolationParamTest, BasicCrudUnderEveryIsolation) {
  Engine engine;
  Table* t = engine.CreateTable("t");
  Transaction* txn = engine.Begin(GetParam());
  ASSERT_EQ(txn->Insert(t, 1, "a"), Rc::kOk);
  Slice s;
  ASSERT_EQ(txn->Read(t, 1, &s), Rc::kOk);
  ASSERT_EQ(txn->Update(t, 1, "b"), Rc::kOk);
  ASSERT_EQ(txn->Delete(t, 1), Rc::kOk);
  EXPECT_EQ(txn->Commit(), Rc::kOk);
}

INSTANTIATE_TEST_SUITE_P(Levels, IsolationParamTest,
                         ::testing::Values(IsolationLevel::kReadCommitted,
                                           IsolationLevel::kSnapshot,
                                           IsolationLevel::kSerializable));

}  // namespace
}  // namespace preemptdb::engine
