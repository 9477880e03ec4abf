#include "snapshot/image.hpp"

#include <fstream>
#include <iterator>

#include "cluster/cluster.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "snapshot/format.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dmsim::snapshot {

namespace {

[[nodiscard]] std::string decode_tag(std::uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xffU);
    // Keep the decoded name printable; unexpected tags stay visible as '?'.
    name[static_cast<std::size_t>(i)] =
        (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

}  // namespace

std::shared_ptr<const Image> Image::open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SnapshotError("snapshot: cannot open '" + path + "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw SnapshotError("snapshot: read error on '" + path + "'");
  }
  try {
    return from_bytes(std::move(bytes));
  } catch (const SnapshotError& e) {
    throw SnapshotError("opening snapshot '" + path + "': " + e.what());
  }
}

std::shared_ptr<const Image> Image::from_bytes(std::string bytes) {
  // make_shared needs a public constructor; the factory keeps it private.
  auto image = std::shared_ptr<Image>(new Image());
  image->bytes_ = std::move(bytes);
  image->parse_envelope();
  return image;
}

void Image::parse_envelope() {
  Reader header(bytes_);
  for (const char c : detail::kMagic) {
    if (header.remaining() == 0 ||
        header.u8() != static_cast<std::uint8_t>(c)) {
      throw SnapshotError("snapshot: bad magic — not a dmsim snapshot");
    }
  }
  version_ = header.u32();
  if (version_ != kFormatVersion) {
    throw SnapshotError("snapshot: unsupported version " +
                        std::to_string(version_) + " (this build reads v" +
                        std::to_string(kFormatVersion) + " only)");
  }
  fingerprint_ = header.u64();
  payload_size_ = header.u64();
  // Compare without adding: payload_size_ + 8 wraps for a declared size
  // within 8 of 2^64.
  if (payload_size_ > header.remaining() ||
      header.remaining() - payload_size_ < 8) {
    throw SnapshotError("snapshot: truncated payload");
  }
  payload_offset_ = header.position();
  Reader tail(std::string_view(bytes_).substr(payload_offset_ + payload_size_));
  payload_checksum_ = tail.u64();
  if (payload_checksum_ != util::fnv1a(payload())) {
    throw SnapshotError("snapshot: payload checksum mismatch — corrupt file");
  }
  // The payload checksum is followed by the section table, whose last 8
  // bytes checksum the rest of it. Integrity first, then structure: any
  // corruption of the table is a checksum mismatch, and the entries parsed
  // below are exactly what the writer produced.
  const std::string_view trailer =
      std::string_view(bytes_).substr(payload_offset_ + payload_size_ + 8);
  if (trailer.size() < 8) {
    throw SnapshotError("snapshot: no section table after the payload");
  }
  const std::string_view table = trailer.substr(0, trailer.size() - 8);
  if (Reader(trailer.substr(table.size())).u64() != util::fnv1a(table)) {
    throw SnapshotError("snapshot: section table checksum mismatch");
  }
  Reader toc(table);
  toc.expect_section(detail::kTocSection, "section table");
  const std::uint32_t count = toc.u32();
  constexpr std::size_t kEntryBytes = 4 + 8 + 8 + 8;
  if (count != toc.remaining() / kEntryBytes ||
      toc.remaining() % kEntryBytes != 0) {
    throw SnapshotError("snapshot: section table size mismatch");
  }
  sections_.reserve(count);
  std::uint64_t expected_next = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionInfo info;
    info.tag = toc.u32();
    info.offset = toc.u64();
    info.size = toc.u64();
    info.checksum = toc.u64();
    info.name = decode_tag(info.tag);
    // Entries must tile the payload exactly: contiguous, in order, ending
    // at the payload boundary.
    if (info.offset != expected_next ||
        info.size > payload_size_ - info.offset) {
      throw SnapshotError("snapshot: section table out of bounds");
    }
    expected_next = info.offset + info.size;
    sections_.push_back(std::move(info));
  }
  if (expected_next != payload_size_) {
    throw SnapshotError("snapshot: section table does not cover payload");
  }
}

void Image::restore_components(const Components& components) const {
  DMSIM_ASSERT(components.engine != nullptr && components.cluster != nullptr &&
                   components.scheduler != nullptr,
               "image restore needs engine, cluster and scheduler");
  Reader r(payload());
  components.engine->restore_state(r);
  components.cluster->restore_state(r);
  components.scheduler->restore_state(r);
  detail::restore_counters_section(r, components.counters);
  r.expect_section(detail::kEndSection, "end");
  if (!r.at_end()) {
    throw SnapshotError("snapshot: unconsumed payload bytes");
  }
}

void Image::materialize(const Components& components) const {
  const std::uint64_t expected = config_fingerprint(components);
  if (fingerprint_ != expected) {
    throw SnapshotError(
        "snapshot: configuration fingerprint mismatch — the snapshot was "
        "taken under a different cluster/scheduler/workload configuration");
  }
  restore_components(components);
}

void Image::materialize_trusted(const Components& components,
                                std::uint64_t expected_fingerprint) const {
  if (fingerprint_ != expected_fingerprint) {
    throw SnapshotError(
        "snapshot: configuration fingerprint mismatch — the snapshot was "
        "taken under a different cluster/scheduler/workload configuration");
  }
  restore_components(components);
}

}  // namespace dmsim::snapshot
