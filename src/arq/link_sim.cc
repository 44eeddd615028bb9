#include "arq/link_sim.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "arq/recovery_session.h"
#include "common/crc.h"
#include "phy/channel.h"

namespace ppr::arq {

phy::DecodedSymbol ChipTransmitNibble(const phy::ChipCodebook& codebook,
                                      std::uint8_t nibble,
                                      double chip_error_p, Rng& rng) {
  phy::DecodedSymbol d;
  int distance = 0;
  d.symbol = static_cast<std::uint8_t>(codebook.DecodeSent(
      nibble, phy::SampleChipErrorMask(rng, chip_error_p), &distance));
  d.hamming_distance = distance;
  d.hint = static_cast<double>(distance);
  return d;
}

BitVec SymbolsToLogicalBits(const std::vector<phy::DecodedSymbol>& symbols) {
  BitVec bits;
  for (const auto& s : symbols) bits.AppendUint(s.symbol, 4);
  return bits;
}

ArqRunStats RunPpArqExchange(const BitVec& payload_bits,
                             const PpArqConfig& config,
                             const BodyChannel& channel,
                             std::size_t max_rounds) {
  const auto strategy = MakeRecoveryStrategy(config);
  return RunRecoveryExchange(payload_bits, config, *strategy, channel,
                             max_rounds);
}

ArqRunStats RunRecoveryExchange(const BitVec& payload_bits,
                                const PpArqConfig& config,
                                const RecoveryStrategy& strategy,
                                const BodyChannel& channel,
                                std::size_t max_rounds) {
  // The duplex exchange is the two-party recovery session
  // (arq/recovery_session.h); the session engine reproduces the legacy
  // loop's channel draw order and accounting exactly.
  return RunRecoveryExchangeSession(payload_bits, config, strategy, channel,
                                    max_rounds)
      .totals;
}

ArqRunStats RunWholePacketArq(const BitVec& payload_bits,
                              const BodyChannel& channel,
                              std::size_t max_rounds) {
  ArqRunStats stats;
  BitVec body = payload_bits;
  body.AppendUint(Crc32Bits(payload_bits), 32);

  for (std::size_t round = 0; round < max_rounds; ++round) {
    stats.forward_bits += body.size();
    ++stats.data_transmissions;
    if (round > 0) stats.retransmission_bits.push_back(body.size());

    const BitVec received = SymbolsToLogicalBits(channel(body));
    const BitVec payload = received.Slice(0, received.size() - 32);
    const auto crc =
        static_cast<std::uint32_t>(received.ReadUint(received.size() - 32, 32));
    stats.feedback_bits += 1;  // ACK/NACK
    if (Crc32Bits(payload) == crc) {
      stats.success = true;
      return stats;
    }
  }
  return stats;
}

ArqRunStats RunFragmentedArq(const BitVec& payload_bits,
                             std::size_t num_fragments,
                             const BodyChannel& channel,
                             std::size_t max_rounds) {
  if (payload_bits.size() % 8 != 0) {
    throw std::invalid_argument("RunFragmentedArq: payload must be octets");
  }
  const std::size_t payload_octets = payload_bits.size() / 8;
  num_fragments = std::min(num_fragments, payload_octets);
  assert(num_fragments > 0);

  // Fragment extents (octet-aligned, as even as possible).
  struct Frag {
    std::size_t bit_offset, bit_len;
    bool have = false;
  };
  std::vector<Frag> frags;
  const std::size_t base = payload_octets / num_fragments;
  const std::size_t rem = payload_octets % num_fragments;
  std::size_t octet = 0;
  for (std::size_t f = 0; f < num_fragments; ++f) {
    const std::size_t size = base + (f < rem ? 1 : 0);
    frags.push_back(Frag{octet * 8, size * 8, false});
    octet += size;
  }

  ArqRunStats stats;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool all = true;
    for (const auto& f : frags) all = all && f.have;
    if (all) {
      stats.success = true;
      return stats;
    }

    ++stats.data_transmissions;
    std::size_t round_bits = 0;
    for (auto& f : frags) {
      if (f.have) continue;
      BitVec unit = payload_bits.Slice(f.bit_offset, f.bit_len);
      unit.AppendUint(Crc32Bits(payload_bits.Slice(f.bit_offset, f.bit_len)),
                      32);
      round_bits += unit.size();
      const BitVec received = SymbolsToLogicalBits(channel(unit));
      const BitVec frag = received.Slice(0, received.size() - 32);
      const auto crc = static_cast<std::uint32_t>(
          received.ReadUint(received.size() - 32, 32));
      if (Crc32Bits(frag) == crc) f.have = true;
    }
    stats.forward_bits += round_bits;
    if (round > 0) stats.retransmission_bits.push_back(round_bits);
    stats.feedback_bits += num_fragments;  // bitmap
  }
  bool all = true;
  for (const auto& f : frags) all = all && f.have;
  stats.success = all;
  return stats;
}

BodyChannel MakeChipErrorChannel(const phy::ChipCodebook& codebook,
                                 double chip_error_p, Rng& rng) {
  Rng* rng_ptr = &rng;
  const phy::ChipCodebook* cb = &codebook;
  return [cb, chip_error_p, rng_ptr](const BitVec& bits) {
    if (bits.size() % 4 != 0) {
      throw std::invalid_argument("channel: bits not a multiple of 4");
    }
    std::vector<phy::DecodedSymbol> out;
    out.reserve(bits.size() / 4);
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      const auto nibble = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      out.push_back(ChipTransmitNibble(*cb, nibble, chip_error_p, *rng_ptr));
    }
    return out;
  };
}

BodyChannel MakeGilbertElliottChannel(const phy::ChipCodebook& codebook,
                                      const GilbertElliottParams& params,
                                      Rng& rng) {
  // State persists across calls (shared_ptr keeps the lambda copyable).
  auto in_bad = std::make_shared<bool>(false);
  Rng* rng_ptr = &rng;
  const phy::ChipCodebook* cb = &codebook;
  return [cb, params, rng_ptr, in_bad](const BitVec& bits) {
    if (bits.size() % 4 != 0) {
      throw std::invalid_argument("channel: bits not a multiple of 4");
    }
    std::vector<phy::DecodedSymbol> out;
    out.reserve(bits.size() / 4);
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      if (*in_bad) {
        if (rng_ptr->Bernoulli(params.p_bad_to_good)) *in_bad = false;
      } else {
        if (rng_ptr->Bernoulli(params.p_good_to_bad)) *in_bad = true;
      }
      const double p =
          *in_bad ? params.chip_error_bad : params.chip_error_good;
      const auto nibble = static_cast<std::uint8_t>(bits.ReadUint(i, 4));
      out.push_back(ChipTransmitNibble(*cb, nibble, p, *rng_ptr));
    }
    return out;
  };
}

}  // namespace ppr::arq
