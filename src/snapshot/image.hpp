// Immutable, shareable snapshot images.
//
// snapshot::Image is the read side of the two-level snapshot model: the
// envelope (magic, version, fingerprint, payload checksum, section table)
// is parsed and validated ONCE at open time, after which the image is
// an immutable, refcounted byte container that any number of threads may
// materialize concurrently. A what-if service forking the same warm image a
// thousand times pays the file read, the checksum sweep and the envelope
// parse exactly once; each fork is just a component restore over the shared
// payload bytes.
//
// Fingerprint checking splits accordingly: materialize() recomputes the
// configuration fingerprint from the target components (the restore_bytes
// behaviour — correct but it re-hashes the full workload on every call),
// while materialize_trusted() compares the image's fingerprint against a
// caller-precomputed value, so a server validates a scenario once and every
// subsequent fork is a 64-bit compare. Both paths refuse mismatches loudly.
//
// Images are created through shared_ptr factories only — the pointer is the
// sharing contract (an LRU cache may drop its reference while forks in
// flight keep theirs alive).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/checkpoint.hpp"

namespace dmsim::snapshot {

/// One payload section as described by the envelope's section table.
struct SectionInfo {
  std::string name;            ///< decoded 4CC tag, e.g. "ENGI", "CLUS"
  std::uint32_t tag = 0;       ///< raw section tag
  std::uint64_t offset = 0;    ///< byte offset within the payload
  std::uint64_t size = 0;      ///< section length in bytes
  std::uint64_t checksum = 0;  ///< FNV-1a of the section bytes
};

class Image {
 public:
  /// Read + parse + validate a snapshot file. Throws SnapshotError (with the
  /// path in the message) on I/O errors, corruption, truncation, a missing
  /// section table or any version but kFormatVersion. The returned image is
  /// immutable and thread-safe.
  [[nodiscard]] static std::shared_ptr<const Image> open(
      const std::string& path);

  /// Parse + validate in-memory snapshot bytes (takes ownership).
  [[nodiscard]] static std::shared_ptr<const Image> from_bytes(
      std::string bytes);

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::uint64_t payload_checksum() const noexcept {
    return payload_checksum_;
  }
  /// The component payload (envelope stripped), validated at parse time.
  [[nodiscard]] std::string_view payload() const noexcept {
    return std::string_view(bytes_).substr(payload_offset_, payload_size_);
  }
  /// Whole-envelope size — what a file restore would have read.
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return bytes_.size();
  }
  /// Section table from the envelope trailer.
  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }

  /// Restore the image's state onto freshly constructed components, with the
  /// full fingerprint recomputation of restore_bytes (hashes topology,
  /// scheduler config and the entire workload). Correct anywhere, but the
  /// slow path — a serve loop should use materialize_trusted.
  void materialize(const Components& components) const;

  /// Restore with the fingerprint check reduced to one 64-bit compare
  /// against `expected_fingerprint`, which the caller computed ONCE (via
  /// config_fingerprint) for the base configuration this fork family shares.
  /// Throws SnapshotError when the image was taken under a different
  /// configuration.
  void materialize_trusted(const Components& components,
                           std::uint64_t expected_fingerprint) const;

 private:
  Image() = default;
  void parse_envelope();
  void restore_components(const Components& components) const;

  std::string bytes_;
  std::uint32_t version_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t payload_checksum_ = 0;
  std::size_t payload_offset_ = 0;
  std::size_t payload_size_ = 0;
  std::vector<SectionInfo> sections_;
};

}  // namespace dmsim::snapshot
