// Binary snapshot primitives.
//
// A snapshot is a flat byte string built from little-endian fixed-width
// scalars and length-prefixed strings. Writer appends, Reader consumes in
// the same order; every read is bounds-checked and throws SnapshotError on
// truncation, so a corrupt or mismatched file fails loudly instead of
// restoring garbage state.
//
// Doubles travel as their IEEE-754 bit pattern (std::bit_cast), never
// through text formatting — restore must be *bitwise* exact for the
// deterministic-replay guarantee, including -0.0 and subnormals.
//
// Components describe their section once, as a field list run by Saver
// (over a Writer) or Loader (over a Reader) — see Saver below.
//
// This layer depends only on util so that sim/cluster/sched can each
// implement save_state(Writer&)/restore_state(Reader&) without pulling in
// the checkpoint orchestration (snapshot/checkpoint.hpp) that stitches the
// per-component sections into a versioned, checksummed file.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace dmsim::snapshot {

/// Thrown on malformed, truncated, or incompatible snapshot bytes.
class SnapshotError : public Error {
 public:
  using Error::Error;
};

/// Four-character section tags make truncation/misalignment failures
/// self-describing: a reader that drifts off a section boundary reports
/// which section it expected instead of silently misparsing scalars.
[[nodiscard]] constexpr std::uint32_t section_tag(char a, char b, char c,
                                                  char d) noexcept {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(a))) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// Append-only little-endian byte builder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 byte length + raw bytes (no terminator).
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    buf_.append(v.data(), v.size());
  }

  void section(std::uint32_t tag) { u32(tag); }

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a snapshot byte string. The viewed bytes must
/// outlive the Reader (str() returns views into them).
class Reader {
 public:
  explicit Reader(std::string_view bytes) noexcept : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw SnapshotError("snapshot: boolean field holds " +
                          std::to_string(int{v}));
    }
    return v != 0;
  }

  [[nodiscard]] std::string_view str() {
    const std::uint32_t n = u32();
    need(n);
    const std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  /// Consume a section tag and verify it matches; `name` labels the error.
  void expect_section(std::uint32_t tag, const char* name) {
    const std::uint32_t got = u32();
    if (got != tag) {
      throw SnapshotError(std::string("snapshot: expected section '") + name +
                          "', found tag 0x" + hex(got) + " at offset " +
                          std::to_string(pos_ - 4));
    }
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw SnapshotError("snapshot: truncated — need " + std::to_string(n) +
                          " byte(s) at offset " + std::to_string(pos_) +
                          ", have " + std::to_string(bytes_.size() - pos_));
    }
  }

  [[nodiscard]] static std::string hex(std::uint32_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s(8, '0');
    for (int i = 7; i >= 0; --i) {
      s[static_cast<std::size_t>(i)] = kDigits[v & 0xfU];
      v >>= 4;
    }
    return s;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Save direction of a component's single field list. A component writes
///
///   template <class Self, class Ar> static void io(Self& self, Ar&& ar);
///
/// once; save_state runs it with Self = const T over a Saver, restore_state
/// with Self = T over a Loader, so the two directions cannot drift apart.
/// Field calls name the wire type (ar.i64(int_field) stores an int as i64).
/// Load-only safety checks go through expect()/require(), or behind
/// `if constexpr (Ar::kLoading)` when they do more than throw.
class Saver {
 public:
  static constexpr bool kLoading = false;

  explicit Saver(Writer& w) noexcept : w_(w) {}

  template <class T>
  void u8(const T& v) { w_.u8(static_cast<std::uint8_t>(v)); }
  template <class T>
  void u32(const T& v) { w_.u32(static_cast<std::uint32_t>(v)); }
  template <class T>
  void u64(const T& v) { w_.u64(static_cast<std::uint64_t>(v)); }
  template <class T>
  void i64(const T& v) { w_.i64(static_cast<std::int64_t>(v)); }
  void f64(double v) { w_.f64(v); }
  void boolean(bool v) { w_.boolean(v); }
  void str(std::string_view v) { w_.str(v); }
  void section(std::uint32_t tag, const char* /*name*/) { w_.section(tag); }

  /// A value the loading side already holds (a count, an id, the topology):
  /// saved as is; the loader reads it back and throws `what` on a mismatch.
  void expect(std::uint8_t v, const char* /*what*/) { w_.u8(v); }
  void expect(std::uint32_t v, const char* /*what*/) { w_.u32(v); }
  void expect(std::uint64_t v, const char* /*what*/) { w_.u64(v); }
  void expect(double v, const char* /*what*/) { w_.f64(v); }
  void expect(std::string_view v, const char* /*what*/) { w_.str(v); }

  /// A check on just-loaded fields; saving has nothing to check.
  void require(bool /*ok*/, const char* /*what*/) noexcept {}

  /// u32 element count, then each(element) in container order.
  template <class Seq, class Fn> void seq(const Seq& s, Fn&& each) {
    w_.u32(static_cast<std::uint32_t>(s.size()));
    for (const auto& e : s) each(e);
  }

  /// u32 entry count, then per entry in ascending key order the u32 key and
  /// each(key, value). Sorting makes hash-map sections canonical: iteration
  /// order is a function of insertion history, which restore does not
  /// reproduce.
  template <class Map, class Fn>
  void map(const Map& m, Fn&& each, const char* /*duplicate*/) {
    std::vector<std::uint32_t> keys;
    keys.reserve(m.size());
    for (const auto& entry : m) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    w_.u32(static_cast<std::uint32_t>(keys.size()));
    for (const std::uint32_t key : keys) {
      w_.u32(key);
      each(key, m.at(key));
    }
  }

  /// A nested object with its own save_state/restore_state pair.
  template <class T> void state(const T& nested) { nested.save_state(w_); }

 private:
  Writer& w_;
};

/// Load direction of a component's field list: the same calls as Saver,
/// assigning into the fields (containers are replaced) and running the
/// checks Saver skips.
class Loader {
 public:
  static constexpr bool kLoading = true;

  explicit Loader(Reader& r) noexcept : r_(r) {}

  template <class T> void u8(T& v) { v = static_cast<T>(r_.u8()); }
  template <class T> void u32(T& v) { v = static_cast<T>(r_.u32()); }
  template <class T> void u64(T& v) { v = static_cast<T>(r_.u64()); }
  template <class T> void i64(T& v) { v = static_cast<T>(r_.i64()); }
  void f64(double& v) { v = r_.f64(); }
  void boolean(bool& v) { v = r_.boolean(); }
  void str(std::string& v) { v = r_.str(); }
  /// Views into the snapshot bytes, which outlive the load.
  void str(std::string_view& v) { v = r_.str(); }
  void section(std::uint32_t tag, const char* name) {
    r_.expect_section(tag, name);
  }

  void expect(std::uint8_t v, const char* what) { check(r_.u8() == v, what); }
  void expect(std::uint32_t v, const char* what) { check(r_.u32() == v, what); }
  void expect(std::uint64_t v, const char* what) { check(r_.u64() == v, what); }
  void expect(double v, const char* what) { check(r_.f64() == v, what); }
  void expect(std::string_view v, const char* what) {
    check(r_.str() == v, what);
  }

  void require(bool ok, const char* what) { check(ok, what); }

  template <class Seq, class Fn> void seq(Seq& s, Fn&& each) {
    s.clear();
    s.resize(count());
    for (auto& e : s) each(e);
  }

  template <class Map, class Fn>
  void map(Map& m, Fn&& each, const char* duplicate) {
    const std::uint32_t n = count();
    m.clear();
    if constexpr (requires { m.reserve(n); }) m.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t key = r_.u32();
      typename Map::mapped_type value{};
      each(key, value);
      require(m.emplace(key, std::move(value)).second, duplicate);
    }
  }

  template <class T> void state(T& nested) { nested.restore_state(r_); }

 private:
  static void check(bool ok, const char* what) {
    if (!ok) throw SnapshotError(what);
  }

  /// Element counts are bounded by the bytes left (every element encodes
  /// to at least one byte), so a corrupt count is a typed error, never a
  /// giant allocation.
  [[nodiscard]] std::uint32_t count() {
    const std::uint32_t n = r_.u32();
    check(n <= r_.remaining(), "snapshot: element count exceeds bytes left");
    return n;
  }

  Reader& r_;
};

}  // namespace dmsim::snapshot
