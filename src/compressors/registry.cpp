#include "compressors/registry.hpp"

namespace qip {

const std::vector<CompressorEntry>& compressor_registry() {
  // Paper Table IV order.
  static const std::vector<CompressorEntry> entries = {
      mgard_entry(), sz3_entry(),     qoz_entry(),  hpez_entry(),
      zfp_entry(),   tthresh_entry(), sperr_entry()};
  return entries;
}

const CompressorEntry& find_compressor(std::string_view name) {
  for (const auto& e : compressor_registry())
    if (e.name == name) return e;
  throw UnknownCodecError("unknown compressor: " + std::string(name));
}

const CompressorEntry& find_compressor_for(
    std::span<const std::uint8_t> archive) {
  const ContainerInfo info = inspect_container(archive);
  for (const auto& e : compressor_registry())
    if (e.id == info.codec) return e;
  throw UnknownCodecError(
      "unknown compressor id " +
          std::to_string(static_cast<unsigned>(info.codec)) + " in archive",
      static_cast<std::uint8_t>(info.codec), info.version);
}

std::vector<const CompressorEntry*> qp_base_compressors() {
  std::vector<const CompressorEntry*> out;
  for (const auto& e : compressor_registry())
    if (e.supports_qp) out.push_back(&e);
  return out;
}

}  // namespace qip
