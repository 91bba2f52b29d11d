#include "bitmap/ewah.h"

#include <algorithm>

namespace intcomp {
namespace {

constexpr uint32_t kW = EwahTraits::Decoder::kGroupBits;

// True when sorted[k] is a group's base and the kW - 1 values after it
// complete the group (strictly increasing input: all bits present).
bool StartsFullGroup(std::span<const uint32_t> sorted, size_t k) {
  return sorted[k] % kW == 0 && k + kW <= sorted.size() &&
         sorted[k + kW - 1] == sorted[k] + (kW - 1);
}

// Word sinks for Encoder: one builds the image, the other only counts its
// words, so EncodeWords and CountWords share every layout decision.
// Literals are staged until the marker that announces them is emitted;
// PutMarker writes a marker that announces none.
class VectorSink {
 public:
  static constexpr bool kStoresLiterals = true;
  explicit VectorSink(std::vector<uint32_t>* words) : words_(words) {}
  void StageLiteral(uint32_t payload) { staged_.push_back(payload); }
  size_t staged() const { return staged_.size(); }
  void PutMarker(uint32_t marker) { words_->push_back(marker); }
  void Emit(uint32_t marker) {
    words_->push_back(marker);
    words_->insert(words_->end(), staged_.begin(), staged_.end());
    staged_.clear();
  }

 private:
  std::vector<uint32_t>* words_;
  std::vector<uint32_t> staged_;
};

class CountSink {
 public:
  static constexpr bool kStoresLiterals = false;
  void StageLiterals(size_t n) { staged_ += n; }
  size_t staged() const { return staged_; }
  void PutMarker(uint32_t /*marker*/) { ++words_; }
  void Emit(uint32_t /*marker*/) {
    words_ += 1 + staged_;
    staged_ = 0;
  }
  size_t words() const { return words_; }

 private:
  size_t words_ = 0;
  size_t staged_ = 0;
};

template <typename Sink>
class Encoder {
 public:
  explicit Encoder(Sink* sink) : sink_(sink) {}

  void AddFill(bool bit, uint64_t n) {
    if (n == 0) return;
    // Literals must be flushed before a new fill run starts, and a marker
    // carries only one fill value, so differing runs also force a flush.
    if (sink_->staged() != 0 || (fill_count_ > 0 && fill_bit_ != bit)) {
      Flush();
    }
    fill_bit_ = bit;
    fill_count_ += n;
  }

  // Adds the run of adjacent dirty groups (neither empty nor full) that
  // starts at sorted[begin], a dirty group's first value, as one literal
  // per group. The run ends before a zero group (a group step > 1) or a
  // full group; both are rare inside dense lists, so the scan's branches
  // predict well. An image sink is given each payload as its group ends; a
  // counting sink never sees one and takes the groups in bulk, at the same
  // kMaxLiterals flush points. Returns one past the run's last value.
  size_t AddDirtyRun(std::span<const uint32_t> sorted, size_t begin,
                     uint32_t* last_group) {
    const uint32_t first = sorted[begin] / kW;
    uint32_t group = first;
    uint32_t bits = uint32_t{1} << (sorted[begin] % kW);
    size_t k = begin + 1;
    for (; k < sorted.size(); ++k) {
      const uint32_t step = sorted[k] / kW - group;
      if (step > 1 || StartsFullGroup(sorted, k)) break;
      group += step;
      if constexpr (Sink::kStoresLiterals) {
        if (step != 0) {
          StageLiteral(bits);
          bits = 0;
        }
        bits |= uint32_t{1} << (sorted[k] % kW);
      }
    }
    if constexpr (Sink::kStoresLiterals) {
      StageLiteral(bits);
    } else {
      for (size_t n = group - first + 1; n > 0;) {
        const size_t take =
            std::min<size_t>(n, EwahTraits::kMaxLiterals - sink_->staged());
        sink_->StageLiterals(take);
        n -= take;
        if (sink_->staged() == EwahTraits::kMaxLiterals) Flush();
      }
    }
    *last_group = group;
    return k;
  }

  void Finish() { Flush(); }

 private:
  void StageLiteral(uint32_t payload) {
    sink_->StageLiteral(payload);
    if (sink_->staged() == EwahTraits::kMaxLiterals) Flush();
  }

  void Flush() {
    while (fill_count_ > EwahTraits::kMaxFill) {
      sink_->PutMarker(
          EwahTraits::MakeMarker(fill_bit_, EwahTraits::kMaxFill, 0));
      fill_count_ -= EwahTraits::kMaxFill;
    }
    if (fill_count_ == 0 && sink_->staged() == 0) return;
    sink_->Emit(EwahTraits::MakeMarker(
        fill_bit_, static_cast<uint32_t>(fill_count_),
        static_cast<uint32_t>(sink_->staged())));
    fill_count_ = 0;
  }

  Sink* sink_;
  uint64_t fill_count_ = 0;
  bool fill_bit_ = false;
};

// Drives `enc` over the 32-bit groups of `sorted`. Each non-empty group
// follows a zero fill of the empty groups before it (ForEachGroup's
// report). A stretch of k consecutive full groups is found by galloping
// and added as one one-fill of k, and a run of adjacent dirty groups is
// added in one scan. The encoder accumulates single fills into the
// current run and flushes literals at the same points either way, so the
// words equal those of reporting group by group.
template <typename Sink>
void WalkGroups(std::span<const uint32_t> sorted, Encoder<Sink>* enc) {
  const size_t size = sorted.size();
  size_t i = 0;
  uint64_t next_group = 0;  // first group not yet reported
  while (i < size) {
    const uint32_t g = sorted[i] / kW;
    const uint32_t base = g * kW;
    enc->AddFill(false, g - next_group);
    if (StartsFullGroup(sorted, i)) {
      const auto full_through = [&](uint64_t k) {  // k full groups from g?
        const uint64_t last = i + k * kW - 1;
        return last < size && sorted[last] == base + k * kW - 1;
      };
      uint64_t lo = 1, hi = 2;  // full_through(lo) holds
      while (full_through(hi)) {
        lo = hi;
        hi *= 2;
      }
      while (hi - lo > 1) {  // full_through(lo) && !full_through(hi)
        const uint64_t mid = lo + (hi - lo) / 2;
        (full_through(mid) ? lo : hi) = mid;
      }
      enc->AddFill(true, lo);
      i += lo * kW;
      next_group = g + lo;
      continue;
    }
    uint32_t last_group;
    i = enc->AddDirtyRun(sorted, i, &last_group);
    next_group = uint64_t{last_group} + 1;
  }
  enc->Finish();
}

}  // namespace

void EwahTraits::EncodeWords(std::span<const uint32_t> sorted,
                             std::vector<uint32_t>* words) {
  words->clear();
  VectorSink sink(words);
  Encoder<VectorSink> enc(&sink);
  WalkGroups(sorted, &enc);
}

size_t EwahTraits::CountWords(std::span<const uint32_t> sorted) {
  CountSink sink;
  Encoder<CountSink> enc(&sink);
  WalkGroups(sorted, &enc);
  return sink.words();
}

}  // namespace intcomp
