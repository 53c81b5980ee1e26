//===- FlatIndex.h - Open-addressing 64-bit key index ----------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat hash index from 64-bit keys to 32-bit values: one contiguous
/// slot array, linear probing, no per-entry allocation. A key may be
/// inserted more than once (forEach visits every entry under it), so the
/// same structure serves as a map (the backward engine's wp memo) and as a
/// multimap (normalization's merge-partner index). clear() keeps the slot
/// array and resets only the slots in use, so an index reused across calls
/// of very different sizes stops allocating once it has reached its
/// largest working size and clears in time proportional to its entries.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_FLATINDEX_H
#define OPTABS_SUPPORT_FLATINDEX_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace optabs {
namespace support {

class FlatIndex {
public:
  /// Removes every entry; keeps the slot array.
  void clear() {
    for (uint32_t I : Used)
      Slots[I].Value = Empty;
    Used.clear();
  }

  size_t size() const { return Used.size(); }

  /// Makes room for \p N entries without rehashing on insert.
  void reserve(size_t N) {
    if (2 * N > Slots.size())
      rehash(2 * N);
  }

  void insert(uint64_t Key, uint32_t Value) {
    if (2 * (Used.size() + 1) > Slots.size())
      rehash(2 * (Used.size() + 1));
    place(Key, Value);
  }

  /// Calls \p Fn(Value) for every entry stored under \p Key, in probe order.
  template <typename FnT> void forEach(uint64_t Key, FnT &&Fn) const {
    if (Slots.empty())
      return;
    for (size_t I = home(Key); Slots[I].Value != Empty; I = (I + 1) & Mask)
      if (Slots[I].Key == Key)
        Fn(Slots[I].Value);
  }

  /// The first entry stored under \p Key, or Missing.
  uint32_t find(uint64_t Key) const {
    if (Slots.empty())
      return Missing;
    for (size_t I = home(Key); Slots[I].Value != Empty; I = (I + 1) & Mask)
      if (Slots[I].Key == Key)
        return Slots[I].Value;
    return Missing;
  }

  /// Returned by find() for an absent key; never a valid value.
  static constexpr uint32_t Missing = UINT32_MAX;

private:
  static constexpr uint32_t Empty = UINT32_MAX;
  struct Slot {
    uint64_t Key = 0;
    uint32_t Value = Empty;
  };

  size_t home(uint64_t Key) const {
    // Fibonacci hashing: the top bits of the product mix every key bit.
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ULL) >> Shift);
  }

  void rehash(size_t MinSlots) {
    size_t N = 16;
    unsigned Bits = 4;
    while (N < MinSlots) {
      N *= 2;
      ++Bits;
    }
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.assign(N, Slot());
    Mask = N - 1;
    Shift = 64 - Bits;
    std::vector<uint32_t> OldUsed;
    OldUsed.swap(Used);
    for (uint32_t I : OldUsed)
      place(Old[I].Key, Old[I].Value);
  }

  void place(uint64_t Key, uint32_t Value) {
    size_t I = home(Key);
    while (Slots[I].Value != Empty)
      I = (I + 1) & Mask;
    Slots[I] = Slot{Key, Value};
    Used.push_back(static_cast<uint32_t>(I));
  }

  std::vector<Slot> Slots;
  std::vector<uint32_t> Used; ///< occupied slot positions
  size_t Mask = 0;
  unsigned Shift = 64;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_FLATINDEX_H
