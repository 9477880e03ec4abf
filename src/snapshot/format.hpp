// Internal snapshot envelope constants and the counters-section codec,
// shared between the checkpoint orchestration (checkpoint.cpp) and the
// parsed-once image layer (image.cpp). Not part of the public snapshot API:
// tools should go through checkpoint.hpp / image.hpp.
#pragma once

#include <cstdint>
#include <string_view>

#include "snapshot/snapshot.hpp"

namespace dmsim::obs {
class Counters;
}

namespace dmsim::snapshot::detail {

inline constexpr std::string_view kMagic = "DMSIMSNP";

inline constexpr std::uint32_t kCountersSection = section_tag('C', 'N', 'T', 'R');
inline constexpr std::uint32_t kEndSection = section_tag('E', 'N', 'D', '.');

/// Section-table trailer appended AFTER the payload checksum:
///
///   u32 'TOC.' | u32 count | count x (u32 tag, u64 offset, u64 size,
///   u64 FNV-1a(section)) | u64 FNV-1a(trailer bytes before this field)
///
/// Every v5 file ends with it; the reader refuses a file without one. It is
/// self-checksummed, so the envelope parse tells a valid trailer from
/// trailing garbage and can index the payload without decoding it.
inline constexpr std::uint32_t kTocSection = section_tag('T', 'O', 'C', '.');

/// Counters-registry section codec (section kCountersSection). Defined in
/// checkpoint.cpp; image.cpp reuses it for Image::materialize.
void save_counters_section(Writer& w, const obs::Counters* counters);
void restore_counters_section(Reader& r, obs::Counters* counters);

}  // namespace dmsim::snapshot::detail
