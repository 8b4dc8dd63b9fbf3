// An alternative authenticated-dictionary backend: a Merkle treap.
//
// The paper's dictionary (dict/dictionary.hpp) is a sorted-leaf Merkle tree
// rebuilt per batch — O(n) hashing per issuance. A treap keyed by serial
// with hash-derived priorities is *canonical* (the same set of entries
// always produces the same tree, independent of insertion order), so RAs
// replaying a CA's history still converge to the same root, while inserts
// only rehash the O(log n) spine.
//
// Trade-off (quantified in bench_ablation_dict): proofs embed one
// (serial, number) pair per node on the search path, so they are ~2x larger
// than the sorted-tree proofs, and absence proofs are just failed search
// paths (the BST ordering makes them sound). This implements the "future
// work" direction of cheaper dictionary maintenance under Heartbleed-scale
// churn.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dict/proof.hpp"

namespace ritm::dict {

/// One node of a treap proof: the entry at a visited node plus the hash of
/// the child subtree NOT taken (the taken side is recomputed).
struct TreapPathNode {
  Entry entry;
  crypto::Digest20 other_child{};
  bool went_left = false;  // direction taken from this node

  bool operator==(const TreapPathNode&) const = default;
};

/// Search-path proof. For presence, the terminal node holds the queried
/// serial and both child hashes; for absence the path ends where a null
/// child was reached.
struct TreapProof {
  bool present = false;
  std::vector<TreapPathNode> path;  // root -> parent of terminal
  // Present only for presence proofs:
  std::optional<Entry> terminal;
  crypto::Digest20 terminal_left{};
  crypto::Digest20 terminal_right{};

  /// Appends the wire encoding to `out` (no intermediate buffers).
  void encode_into(Bytes& out) const;
  Bytes encode() const;
  static std::optional<TreapProof> decode(ByteSpan data);
  /// Exact encoded size, computed without serializing.
  std::size_t wire_size() const noexcept;

  bool operator==(const TreapProof&) const = default;
};

class MerkleTreap {
 public:
  MerkleTreap() = default;

  std::uint64_t size() const noexcept { return size_; }

  /// Root hash; empty treap hashes to the same empty_root() constant as the
  /// sorted tree (domain-separated node encodings differ, so roots of the
  /// two backends never collide for non-empty sets).
  crypto::Digest20 root() const;

  bool contains(const cert::SerialNumber& serial) const;

  /// Inserts with the next consecutive number (idempotent per serial).
  /// Returns the entries actually added.
  std::vector<Entry> insert(const std::vector<cert::SerialNumber>& serials);

  /// RA-side replay acceptance, mirroring Dictionary::update.
  bool update(const std::vector<cert::SerialNumber>& serials,
              const crypto::Digest20& expected_root, std::uint64_t expected_n);

  TreapProof prove(const cert::SerialNumber& serial) const;

  /// Verifies a proof against a root: recomputes hashes bottom-up and
  /// checks the BST ordering of the search path (which makes absence
  /// proofs sound: the path is the unique canonical search path).
  static bool verify(const TreapProof& proof, const cert::SerialNumber& serial,
                     const crypto::Digest20& root);

  /// Number of nodes rehashed by the last insert() call (ablation metric).
  std::uint64_t last_rehash_count() const noexcept { return rehashed_; }

 private:
  struct Node {
    Entry entry;
    crypto::Digest20 priority{};  // H(serial): canonical heap order
    crypto::Digest20 hash{};      // Merkle hash of the subtree
    std::unique_ptr<Node> left, right;
  };

  static const crypto::Digest20& null_hash();
  void rehash(Node& node);
  std::unique_ptr<Node> insert_node(std::unique_ptr<Node> root,
                                    std::unique_ptr<Node> node);
  std::unique_ptr<Node> rotate_left(std::unique_ptr<Node> node);
  std::unique_ptr<Node> rotate_right(std::unique_ptr<Node> node);

  std::unique_ptr<Node> root_;
  std::uint64_t size_ = 0;
  std::uint64_t rehashed_ = 0;
};

}  // namespace ritm::dict
