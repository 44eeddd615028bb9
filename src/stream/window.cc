#include "stream/window.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fec/gf256.h"
#include "fec/rlnc.h"
#include "obs/obs.h"

namespace ppr::stream {

WindowEncoder::WindowEncoder(std::size_t capacity, std::size_t symbol_bytes)
    : symbol_bytes_(symbol_bytes), ring_(capacity) {
  if (capacity == 0 || symbol_bytes == 0) {
    throw std::invalid_argument("WindowEncoder: empty window");
  }
}

std::optional<SymbolId> WindowEncoder::Push(std::vector<std::uint8_t> data) {
  if (data.size() != symbol_bytes_) {
    throw std::invalid_argument("WindowEncoder::Push: symbol size mismatch");
  }
  if (Full()) return std::nullopt;
  const SymbolId id = next_id_++;
  ring_[static_cast<std::size_t>(id % capacity())] = std::move(data);
  return id;
}

StreamRepairSymbol WindowEncoder::MakeRepair(std::uint32_t seed) const {
  if (in_flight() == 0) {
    throw std::logic_error("WindowEncoder::MakeRepair: empty window");
  }
  StreamRepairSymbol out;
  out.first_id = first_unacked_;
  out.span = static_cast<std::uint16_t>(in_flight());
  out.seed = seed;
  out.data.assign(symbol_bytes_, 0);
  const auto coefs = fec::RepairCoefficients(seed, out.span);
  std::vector<fec::GfTerm> terms;
  terms.reserve(out.span);
  for (std::size_t j = 0; j < out.span; ++j) {
    if (coefs[j] == 0) continue;
    terms.push_back({coefs[j], Symbol(first_unacked_ + j)});
  }
  fec::GfAxpyN(out.data, terms);
  return out;
}

std::size_t WindowEncoder::Advance(SymbolId cumulative_ack) {
  const SymbolId target = std::min(cumulative_ack, next_id_);
  if (target <= first_unacked_) return 0;
  const std::size_t retired = static_cast<std::size_t>(target - first_unacked_);
  first_unacked_ = target;
  return retired;
}

const std::vector<std::uint8_t>& WindowEncoder::Symbol(SymbolId id) const {
  assert(id >= first_unacked_ && id < next_id_);
  return ring_[static_cast<std::size_t>(id % capacity())];
}

// ---------------------------------------------------------------- decoder

WindowDecoder::WindowDecoder(std::size_t capacity, std::size_t symbol_bytes)
    : capacity_(capacity),
      symbol_bytes_(symbol_bytes),
      known_(capacity),
      recovered_(capacity, false),
      retired_(capacity),
      storage_(std::make_unique<std::uint8_t[]>(
          capacity * (1 + capacity + symbol_bytes))),
      basis_(storage_.get() + capacity, capacity + symbol_bytes, capacity,
             symbol_bytes, storage_.get()),
      work_(capacity + symbol_bytes) {
  if (capacity == 0 || symbol_bytes == 0) {
    throw std::invalid_argument("WindowDecoder: empty window");
  }
}

std::size_t WindowDecoder::Deficit() const {
  const std::size_t seen = static_cast<std::size_t>(highest_seen_ - base_);
  return seen - known_count_ - basis_.rank();
}

bool WindowDecoder::Known(SymbolId id) const {
  return known_[Slot(id)].has_value();
}

const std::vector<std::uint8_t>& WindowDecoder::KnownData(SymbolId id) const {
  assert(Known(id));
  return *known_[Slot(id)];
}

bool WindowDecoder::AddSource(SymbolId id, std::vector<std::uint8_t> data,
                              bool recovered) {
  if (data.size() != symbol_bytes_) {
    throw std::invalid_argument("WindowDecoder::AddSource: size mismatch");
  }
  if (id < base_) {  // already delivered
    ++stale_dropped_;
    return false;
  }
  if (id >= base_ + capacity_) {
    ++overflow_dropped_;
    return false;
  }
  highest_seen_ = std::max(highest_seen_, id + 1);
  if (Known(id)) return false;  // duplicate
  const std::size_t col = Slot(id);
  if (basis_.Live(col)) {
    // The column already carries an equation (lead coef 1 at `col`,
    // Gauss-Jordan reduced elsewhere). The verbatim symbol makes the
    // column known; the row, with the now-known term substituted out,
    // still relates the OTHER unknowns it references — re-bank it.
    const auto row = basis_.Row(col);
    std::copy(row.begin(), row.end(), work_.begin());
    basis_.Retire(col);
    work_[col] = 0;
    fec::GfAxpy(std::span(work_).subspan(capacity_), 1, data);
    SetKnown(id, std::move(data), recovered);
    basis_.Insert(work_);
  } else {
    SetKnown(id, std::move(data), recovered);
  }
  ExtractUnitRows();
  return true;
}

bool WindowDecoder::AddRepair(const StreamRepairSymbol& repair) {
  if (repair.data.size() != symbol_bytes_ || repair.span == 0) {
    throw std::invalid_argument("WindowDecoder::AddRepair: bad shape");
  }
  const SymbolId end = repair.first_id + repair.span;
  if (end <= base_) {  // spans only delivered symbols
    ++stale_dropped_;
    return false;
  }
  if (repair.first_id + capacity_ < base_ ||
      (base_ >= capacity_ && repair.first_id < base_ - capacity_)) {
    // Reaches back past the retired ring: the delivered data needed to
    // substitute the prefix is gone.
    ++stale_dropped_;
    return false;
  }
  if (end > base_ + capacity_) {
    ++overflow_dropped_;
    return false;
  }
  highest_seen_ = std::max(highest_seen_, end);

  // Substitute every known symbol out of the equation; what is left is
  // a relation over the window's unknown columns only.
  const std::span<std::uint8_t> coefs(work_.data(), capacity_);
  std::fill(coefs.begin(), coefs.end(), 0);
  span_coefs_.resize(repair.span);
  fec::RepairCoefficientsInto(repair.seed, span_coefs_);
  known_terms_.clear();
  bool any_unknown = false;
  for (std::size_t j = 0; j < repair.span; ++j) {
    const std::uint8_t c = span_coefs_[j];
    if (c == 0) continue;
    const SymbolId id = repair.first_id + j;
    if (id < base_) {
      assert(retired_[Slot(id)].has_value());
      known_terms_.push_back({c, *retired_[Slot(id)]});
    } else if (Known(id)) {
      known_terms_.push_back({c, KnownData(id)});
    } else {
      coefs[Slot(id)] = c;
      any_unknown = true;
    }
  }
  if (!any_unknown) return false;  // everything already known
  const auto data = std::span(work_).subspan(capacity_);
  std::copy(repair.data.begin(), repair.data.end(), data.begin());
  fec::GfAxpyN(data, known_terms_);
  if (basis_.Insert(work_) == capacity_) return false;  // dependent
  ExtractUnitRows();
  return true;
}

void WindowDecoder::SetKnown(SymbolId id, std::vector<std::uint8_t> data,
                             bool recovered) {
  const std::size_t col = Slot(id);
  assert(id >= base_ && id < base_ + capacity_ && !known_[col].has_value());
  assert(!basis_.Live(col));
  // Substitute the new known out of every row still referencing the
  // column (possible when it was a non-pivot column).
  for (std::size_t j = 0; j < capacity_; ++j) {
    if (!basis_.Live(j)) continue;
    const auto row = basis_.Row(j);
    const std::uint8_t c = row[col];
    if (c == 0) continue;
    fec::GfAxpy(row.subspan(capacity_), c, data);
    row[col] = 0;
  }
  known_[col] = std::move(data);
  recovered_[col] = recovered;
  ++known_count_;
}

void WindowDecoder::ExtractUnitRows() {
  // A pivot row reduced to a single nonzero coefficient IS its symbol:
  // extract it as known and retire the row. Extraction substitutes
  // nothing (the pivot column is zero in every other row by
  // Gauss-Jordan reduction), but SetKnown's substitution of
  // still-referenced non-pivot columns can shrink further rows to unit
  // weight, so iterate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t j = 0; j < capacity_; ++j) {
      if (!basis_.Live(j)) continue;
      const auto row = basis_.Row(j);
      bool unit = true;
      for (std::size_t k = 0; k < capacity_; ++k) {
        if (k != j && row[k] != 0) {
          unit = false;
          break;
        }
      }
      if (!unit) continue;
      assert(row[j] == 1);
      const auto data = basis_.Data(j);
      basis_.Retire(j);
      SetKnown(IdAt(j), {data.begin(), data.end()}, /*recovered=*/true);
      obs::Count("stream.window.recovered");
      changed = true;
    }
  }
}

std::vector<DeliverableSymbol> WindowDecoder::PopDeliverable() {
  std::vector<DeliverableSymbol> out;
  while (base_ < highest_seen_ && known_[Slot(base_)].has_value()) {
    // Every known column is zero in every banked row, so the slot
    // passes to id base_ + capacity with nothing to re-eliminate.
    assert(!basis_.Live(Slot(base_)));
    DeliverableSymbol d;
    d.id = base_;
    d.data = std::move(*known_[Slot(base_)]);
    d.recovered = recovered_[Slot(base_)];
    known_[Slot(base_)].reset();
    recovered_[Slot(base_)] = false;
    --known_count_;
    // Park the delivered data in the retired ring (same slot: the ring
    // index of id and id + capacity coincide) for late repairs that
    // still span it.
    retired_[Slot(base_)] = d.data;
    out.push_back(std::move(d));
    ++base_;
  }
  return out;
}

}  // namespace ppr::stream
