#include "dict/treap.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/io.hpp"

namespace ritm::dict {

namespace {

int cmp(const cert::SerialNumber& a, const cert::SerialNumber& b) {
  return ritm::compare(ByteSpan(a.value), ByteSpan(b.value));
}

/// Node hash: H(0x03 ‖ left ‖ len ‖ serial ‖ number ‖ right). The 0x03 tag
/// domain-separates treap nodes from sorted-tree leaves (0x00) and interior
/// nodes (0x01). The preimage is at most 71 bytes, so hash20 takes its
/// one-shot two-block fast path on every rehash.
crypto::Digest20 treap_node_hash(const crypto::Digest20& left, const Entry& e,
                                 const crypto::Digest20& right) {
  std::uint8_t buf[1 + 20 + 2 + cert::kMaxSerialBytes + 8 + 20];
  std::size_t off = 0;
  buf[off++] = 0x03;
  for (auto b : left) buf[off++] = b;
  buf[off++] = static_cast<std::uint8_t>(e.serial.value.size());
  for (auto b : e.serial.value) buf[off++] = b;
  for (int s = 56; s >= 0; s -= 8) {
    buf[off++] = static_cast<std::uint8_t>(e.number >> s);
  }
  for (auto b : right) buf[off++] = b;
  return crypto::hash20(ByteSpan(buf, off));
}

void encode_entry(ByteWriter& w, const Entry& e) {
  w.var8(ByteSpan(e.serial.value));
  w.u64(e.number);
}

std::optional<Entry> decode_entry(ByteReader& r) {
  auto serial = r.try_var8();
  if (!serial || serial->empty() || serial->size() > cert::kMaxSerialBytes) {
    return std::nullopt;
  }
  auto number = r.try_u64();
  if (!number) return std::nullopt;
  return Entry{cert::SerialNumber{std::move(*serial)}, *number};
}

std::optional<crypto::Digest20> decode_digest(ByteReader& r) {
  auto raw = r.try_raw(20);
  if (!raw) return std::nullopt;
  crypto::Digest20 d{};
  std::copy(raw->begin(), raw->end(), d.begin());
  return d;
}

}  // namespace

const crypto::Digest20& MerkleTreap::null_hash() {
  static const crypto::Digest20 h = [] {
    const std::uint8_t tag = 0x04;
    return crypto::hash20(ByteSpan(&tag, 1));
  }();
  return h;
}

crypto::Digest20 MerkleTreap::root() const {
  if (!root_) return empty_root();
  return root_->hash;
}

void MerkleTreap::rehash(Node& node) {
  const auto& l = node.left ? node.left->hash : null_hash();
  const auto& r = node.right ? node.right->hash : null_hash();
  node.hash = treap_node_hash(l, node.entry, r);
  ++rehashed_;
}

std::unique_ptr<MerkleTreap::Node> MerkleTreap::rotate_right(
    std::unique_ptr<Node> node) {
  auto left = std::move(node->left);
  node->left = std::move(left->right);
  rehash(*node);
  left->right = std::move(node);
  rehash(*left);
  return left;
}

std::unique_ptr<MerkleTreap::Node> MerkleTreap::rotate_left(
    std::unique_ptr<Node> node) {
  auto right = std::move(node->right);
  node->right = std::move(right->left);
  rehash(*node);
  right->left = std::move(node);
  rehash(*right);
  return right;
}

std::unique_ptr<MerkleTreap::Node> MerkleTreap::insert_node(
    std::unique_ptr<Node> root, std::unique_ptr<Node> node) {
  if (!root) {
    rehash(*node);
    return node;
  }
  const int c = cmp(node->entry.serial, root->entry.serial);
  if (c < 0) {
    root->left = insert_node(std::move(root->left), std::move(node));
    rehash(*root);
    // Heap property on priorities (lexicographically larger digest wins).
    if (ritm::compare(ByteSpan(root->left->priority.data(), 20),
                      ByteSpan(root->priority.data(), 20)) > 0) {
      root = rotate_right(std::move(root));
    }
  } else {
    root->right = insert_node(std::move(root->right), std::move(node));
    rehash(*root);
    if (ritm::compare(ByteSpan(root->right->priority.data(), 20),
                      ByteSpan(root->priority.data(), 20)) > 0) {
      root = rotate_left(std::move(root));
    }
  }
  return root;
}

bool MerkleTreap::contains(const cert::SerialNumber& serial) const {
  const Node* node = root_.get();
  while (node != nullptr) {
    const int c = cmp(serial, node->entry.serial);
    if (c == 0) return true;
    node = c < 0 ? node->left.get() : node->right.get();
  }
  return false;
}

std::vector<Entry> MerkleTreap::insert(
    const std::vector<cert::SerialNumber>& serials) {
  rehashed_ = 0;
  std::vector<Entry> added;
  for (const auto& s : serials) {
    if (s.value.empty() || s.value.size() > cert::kMaxSerialBytes) {
      throw std::invalid_argument("MerkleTreap::insert: bad serial length");
    }
    if (contains(s)) continue;
    auto node = std::make_unique<Node>();
    node->entry = Entry{s, size_ + 1};
    node->priority = crypto::hash20(ByteSpan(s.value));
    root_ = insert_node(std::move(root_), std::move(node));
    ++size_;
    added.push_back(Entry{s, size_});
  }
  return added;
}

bool MerkleTreap::update(const std::vector<cert::SerialNumber>& serials,
                         const crypto::Digest20& expected_root,
                         std::uint64_t expected_n) {
  // The treap cannot roll back cheaply, so replay into a scratch copy
  // first... but copying is O(n). Instead: apply, and on mismatch rebuild
  // from scratch minus the new entries. Mismatches are rare (they mean a
  // misbehaving CA), so the slow path is acceptable.
  const std::uint64_t old_size = size_;
  std::vector<Entry> added = insert(serials);
  if (size_ == expected_n && root() == expected_root) return true;

  // Slow rollback: collect surviving entries in numbering order.
  std::vector<Entry> keep;
  keep.reserve(old_size);
  std::vector<const Node*> stack;
  if (root_) stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->entry.number <= old_size) keep.push_back(n->entry);
    if (n->left) stack.push_back(n->left.get());
    if (n->right) stack.push_back(n->right.get());
  }
  std::sort(keep.begin(), keep.end(),
            [](const Entry& a, const Entry& b) { return a.number < b.number; });
  root_.reset();
  size_ = 0;
  for (const auto& e : keep) insert({e.serial});
  return false;
}

TreapProof MerkleTreap::prove(const cert::SerialNumber& serial) const {
  TreapProof proof;
  const Node* node = root_.get();
  while (node != nullptr) {
    const int c = cmp(serial, node->entry.serial);
    if (c == 0) {
      proof.present = true;
      proof.terminal = node->entry;
      proof.terminal_left = node->left ? node->left->hash : null_hash();
      proof.terminal_right = node->right ? node->right->hash : null_hash();
      return proof;
    }
    TreapPathNode step;
    step.entry = node->entry;
    step.went_left = c < 0;
    step.other_child = step.went_left
                           ? (node->right ? node->right->hash : null_hash())
                           : (node->left ? node->left->hash : null_hash());
    proof.path.push_back(std::move(step));
    node = c < 0 ? node->left.get() : node->right.get();
  }
  proof.present = false;
  return proof;
}

bool MerkleTreap::verify(const TreapProof& proof,
                         const cert::SerialNumber& serial,
                         const crypto::Digest20& root) {
  // Empty-structure case.
  if (!proof.present && proof.path.empty() && !proof.terminal) {
    if (root == empty_root()) return true;
    // Non-empty root: fall through to the standard check, which requires a
    // non-empty path and will fail.
  }

  // BST-order soundness: every step must be consistent with the search for
  // `serial`, and a presence terminal must hold `serial` itself.
  crypto::Digest20 h;
  if (proof.present) {
    if (!proof.terminal) return false;
    if (cmp(proof.terminal->serial, serial) != 0) return false;
    h = treap_node_hash(proof.terminal_left, *proof.terminal,
                        proof.terminal_right);
  } else {
    if (proof.terminal) return false;
    if (proof.path.empty()) return root == empty_root();
    h = null_hash();
  }

  // Walk the path bottom-up, recomputing hashes; check ordering top-down
  // by construction: each node's comparison must match the direction.
  for (auto it = proof.path.rbegin(); it != proof.path.rend(); ++it) {
    const int c = cmp(serial, it->entry.serial);
    if (c == 0) return false;              // serial on path but not terminal
    if ((c < 0) != it->went_left) return false;
    h = it->went_left ? treap_node_hash(h, it->entry, it->other_child)
                      : treap_node_hash(it->other_child, it->entry, h);
  }
  return h == root;
}

std::size_t TreapProof::wire_size() const noexcept {
  // u8 present + u16 path length, then per step: var8 serial + u64 number +
  // 20-byte sibling + u8 direction; a presence terminal adds its entry and
  // both child hashes.
  std::size_t total = 1 + 2;
  for (const auto& step : path) {
    total += 1 + step.entry.serial.value.size() + 8 + 20 + 1;
  }
  if (present && terminal) {
    total += 1 + terminal->serial.value.size() + 8 + 20 + 20;
  }
  return total;
}

Bytes TreapProof::encode() const {
  Bytes out;
  out.reserve(wire_size());
  encode_into(out);
  return out;
}

void TreapProof::encode_into(Bytes& out) const {
  ByteWriter w(out);
  w.u8(present ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(path.size()));
  for (const auto& step : path) {
    encode_entry(w, step.entry);
    w.raw(ByteSpan(step.other_child.data(), step.other_child.size()));
    w.u8(step.went_left ? 1 : 0);
  }
  if (present) {
    if (!terminal) throw std::logic_error("TreapProof: missing terminal");
    encode_entry(w, *terminal);
    w.raw(ByteSpan(terminal_left.data(), terminal_left.size()));
    w.raw(ByteSpan(terminal_right.data(), terminal_right.size()));
  }
}

std::optional<TreapProof> TreapProof::decode(ByteSpan data) {
  ByteReader r{data};
  TreapProof p;
  auto present = r.try_u8();
  if (!present || *present > 1) return std::nullopt;
  p.present = *present == 1;
  auto steps = r.try_u16();
  if (!steps) return std::nullopt;
  p.path.reserve(*steps);
  for (std::uint16_t i = 0; i < *steps; ++i) {
    TreapPathNode step;
    auto entry = decode_entry(r);
    if (!entry) return std::nullopt;
    step.entry = std::move(*entry);
    auto other = decode_digest(r);
    if (!other) return std::nullopt;
    step.other_child = *other;
    auto went_left = r.try_u8();
    if (!went_left || *went_left > 1) return std::nullopt;
    step.went_left = *went_left == 1;
    p.path.push_back(std::move(step));
  }
  if (p.present) {
    auto terminal = decode_entry(r);
    if (!terminal) return std::nullopt;
    p.terminal = std::move(*terminal);
    auto l = decode_digest(r);
    auto rr = l ? decode_digest(r) : std::nullopt;
    if (!rr) return std::nullopt;
    p.terminal_left = *l;
    p.terminal_right = *rr;
  }
  if (!r.done()) return std::nullopt;
  return p;
}

}  // namespace ritm::dict
