// Minimal SHA-256 (FIPS 180-4), used for spec-file content hashes in the
// uts_check manifest and the kExport handshake. Self-contained so the
// toolchain needs no crypto dependency; this is an integrity fingerprint
// for stale-manifest detection, not a security boundary. meta_check keys
// its visited set on the raw 32-byte digest.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace npss::util {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Raw 32-byte digest of `data`.
Sha256Digest sha256(std::string_view data);

/// Lower-case hex digest (64 chars) of `data`.
std::string sha256_hex(std::string_view data);

}  // namespace npss::util
