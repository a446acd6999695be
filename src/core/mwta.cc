#include "core/mwta.h"

namespace pta {

namespace {

Result<TemporalRelation> ExtendTimestamps(const TemporalRelation& rel,
                                          const MwtaWindow& window) {
  if (window.preceding < 0 || window.following < 0) {
    return Status::InvalidArgument("window bounds must be non-negative");
  }
  // r holds in the window of t  <=>  r.tb - following <= t <= r.te +
  // preceding, so the shadow tuple is valid on exactly those instants.
  std::vector<Chronon> tb = rel.tb();
  std::vector<Chronon> te = rel.te();
  for (Chronon& b : tb) b -= window.following;
  for (Chronon& e : te) e += window.preceding;
  TemporalRelation extended = rel;
  PTA_RETURN_IF_ERROR(extended.SetIntervals(std::move(tb), std::move(te)));
  return extended;
}

}  // namespace

Result<SequentialRelation> Mwta(const TemporalRelation& rel,
                                const ItaSpec& spec,
                                const MwtaWindow& window) {
  auto extended = ExtendTimestamps(rel, window);
  if (!extended.ok()) return extended.status();
  return Ita(*extended, spec);
}

Result<std::unique_ptr<SegmentSource>> MwtaStream(const TemporalRelation& rel,
                                                  const ItaSpec& spec,
                                                  const MwtaWindow& window) {
  auto extended = ExtendTimestamps(rel, window);
  if (!extended.ok()) return extended.status();
  // The stream must reference the relation it owns, so build it in place.
  auto owned = std::make_unique<TemporalRelation>(std::move(*extended));
  auto stream = ItaStream::Create(*owned, spec);
  if (!stream.ok()) return stream.status();

  // Keep both alive together.
  class Holder : public SegmentSource {
   public:
    Holder(std::unique_ptr<TemporalRelation> rel,
           std::unique_ptr<ItaStream> stream)
        : rel_(std::move(rel)), stream_(std::move(stream)) {}
    size_t num_aggregates() const override {
      return stream_->num_aggregates();
    }
    bool Next(Segment* out) override { return stream_->Next(out); }

   private:
    std::unique_ptr<TemporalRelation> rel_;
    std::unique_ptr<ItaStream> stream_;
  };
  return std::unique_ptr<SegmentSource>(
      new Holder(std::move(owned), std::move(*stream)));
}

}  // namespace pta
