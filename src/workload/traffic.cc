#include "workload/traffic.h"

#include <cmath>

#include "common/clause.h"
#include "workload/generator.h"

namespace porygon::workload {

namespace {

using clause::FormatG;

std::string FmtU(uint64_t v) { return std::to_string(v); }

constexpr clause::Named<Spec::Model> kModels[] = {
    {Spec::Model::kUniform, "uniform"},
    {Spec::Model::kZipf, "zipf"},
    {Spec::Model::kFlashCrowd, "flashcrowd"},
    {Spec::Model::kContract, "contract"},
};

constexpr clause::Named<Spec::Arrival> kArrivals[] = {
    {Spec::Arrival::kConstant, "constant"},
    {Spec::Arrival::kBursty, "bursty"},
    {Spec::Arrival::kDiurnal, "diurnal"},
    {Spec::Arrival::kFlash, "flash"},
};

}  // namespace

std::vector<tx::Transaction> TrafficModel::Batch(size_t n) {
  std::vector<tx::Transaction> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

size_t ArrivalProcess::CountFor(double t_s, double len_s,
                                double base_tps) const {
  if (len_s <= 0 || base_tps <= 0) return 0;
  // Midpoint rule over a fixed grid: deterministic, and fine-grained enough
  // that on/off edges land within 1/16 of a window.
  constexpr int kSteps = 16;
  const double h = len_s / kSteps;
  double total = 0;
  for (int i = 0; i < kSteps; ++i) {
    total += RateAt(t_s + (i + 0.5) * h) * h * base_tps;
  }
  return static_cast<size_t>(total + 0.5);
}

Result<Spec> Spec::Parse(const std::string& spec) {
  Spec out;
  bool model_named = false;
  for (const clause::Clause& c : clause::Split(spec)) {
    const std::string_view v = c.value;
    bool ok = false;
    const char* why = "unknown clause";
    Model model = Model::kUniform;
    if (clause::FromName(kModels, c.key, &model)) {
      if (model_named) {
        return clause::Bad("workload", c.text, "second model clause");
      }
      model_named = true;
      out.model = model;
      switch (model) {
        case Model::kUniform:
          ok = v.empty();
          why = "uniform takes no value";
          break;
        case Model::kZipf:
          out.zipf_s = 0.99;
          ok = v.empty() ||
               (clause::ParseReal(v, &out.zipf_s) && out.zipf_s > 0);
          why = "exponent must be a positive number";
          break;
        case Model::kFlashCrowd:
          ok = v.empty() ||
               (clause::ParseU64(v, &out.hot_size) && out.hot_size > 0);
          why = "hot-set size must be a positive integer";
          break;
        case Model::kContract: {
          if (out.zipf_s == 0) out.zipf_s = 0.8;  // Popular by default.
          int keys = static_cast<int>(out.contract_keys);
          ok = v.empty() || clause::ParseInt(v, &keys, 2, 64);
          out.contract_keys = static_cast<uint32_t>(keys);
          why = "keys per call must be in [2,64]";
          break;
        }
      }
    } else if (c.key == "accounts") {
      ok = clause::ParseU64(v, &out.num_accounts) && out.num_accounts >= 2;
      why = "expected an integer >= 2";
    } else if (c.key == "cross") {
      ok = clause::ParseReal(v, &out.cross_shard_ratio) &&
           out.cross_shard_ratio <= 1;
      why = "expected a ratio in [0,1] (or negative for natural)";
    } else if (c.key == "skew") {
      ok = clause::ParseReal(v, &out.zipf_s, 0);
      why = "expected a non-negative exponent";
    } else if (c.key == "amount") {
      const clause::Clause range = clause::Cut(v);
      ok = clause::ParseU64(range.key, &out.amount_min) &&
           clause::ParseU64(range.value, &out.amount_max) &&
           out.amount_min >= 1 && out.amount_max >= out.amount_min;
      why = "expected amount:<lo>:<hi> with 1<=lo<=hi";
    } else if (c.key == "hot") {
      ok = clause::ParseReal(v, &out.hot_fraction, 0, 1);
      why = "expected a fraction in [0,1]";
    } else if (c.key == "rotate") {
      ok = clause::ParseU64(v, &out.rotate_every) && out.rotate_every > 0;
      why = "expected a positive integer";
    } else if (c.key == "contracts") {
      ok = clause::ParseU64(v, &out.num_contracts) && out.num_contracts > 0;
      why = "expected a positive integer";
    } else if (c.key == "seed") {
      ok = clause::ParseU64(v, &out.seed);
      why = "expected an integer";
    } else if (c.key == "arrival") {
      ok = clause::FromName(kArrivals, v, &out.arrival);
      why = "expected constant, bursty, diurnal, or flash";
    } else if (c.key == "period") {
      ok = clause::ParseReal(v, &out.period_s) && out.period_s > 0;
      why = "expected a positive duration (seconds)";
    } else if (c.key == "duty") {
      ok = clause::ParseReal(v, &out.duty) && out.duty > 0 && out.duty < 1;
      why = "expected a fraction in (0,1)";
    } else if (c.key == "peak") {
      ok = clause::ParseReal(v, &out.peak, 1);
      why = "expected a multiplier >= 1";
    } else if (c.key == "at") {
      ok = clause::ParseReal(v, &out.at_s, 0);
      why = "expected a non-negative time (seconds)";
    } else if (c.key == "dur") {
      ok = clause::ParseReal(v, &out.dur_s) && out.dur_s > 0;
      why = "expected a positive duration (seconds)";
    }
    if (!ok) return clause::Bad("workload", c.text, why);
  }
  if (out.model == Model::kContract &&
      out.num_contracts >= out.num_accounts) {
    return Status::InvalidArgument(
        "workload: contracts must be < accounts (contract ids occupy the "
        "bottom of the account space)");
  }
  if (out.model == Model::kFlashCrowd && out.hot_size >= out.num_accounts) {
    return Status::InvalidArgument("workload: hot-set size must be < accounts");
  }
  return out;
}

std::string Spec::ToString() const {
  std::string s = clause::NameOf(kModels, model);
  switch (model) {
    case Model::kUniform: break;
    case Model::kZipf: s += ":" + FormatG(zipf_s); break;
    case Model::kFlashCrowd: s += ":" + FmtU(hot_size); break;
    case Model::kContract: s += ":" + FmtU(contract_keys); break;
  }
  s += ",accounts:" + FmtU(num_accounts);
  if (model == Model::kUniform && cross_shard_ratio >= 0) {
    s += ",cross:" + FormatG(cross_shard_ratio);
  }
  if (model != Model::kZipf && zipf_s > 0) s += ",skew:" + FormatG(zipf_s);
  if (amount_min != 1 || amount_max != 100) {
    s += ",amount:" + FmtU(amount_min) + ":" + FmtU(amount_max);
  }
  if (model == Model::kFlashCrowd) {
    s += ",hot:" + FormatG(hot_fraction) + ",rotate:" + FmtU(rotate_every);
  }
  if (model == Model::kContract) s += ",contracts:" + FmtU(num_contracts);
  if (arrival != Arrival::kConstant) {
    s += ",arrival:" + std::string(clause::NameOf(kArrivals, arrival));
  }
  switch (arrival) {
    case Arrival::kConstant:
      break;
    case Arrival::kBursty:
      s += ",period:" + FormatG(period_s) + ",duty:" + FormatG(duty) +
           ",peak:" + FormatG(peak);
      break;
    case Arrival::kDiurnal:
      s += ",period:" + FormatG(period_s) + ",peak:" + FormatG(peak);
      break;
    case Arrival::kFlash:
      s += ",at:" + FormatG(at_s) + ",dur:" + FormatG(dur_s) +
           ",peak:" + FormatG(peak);
      break;
  }
  s += ",seed:" + FmtU(seed);
  return s;
}

std::unique_ptr<TrafficModel> Spec::BuildModel() const {
  switch (model) {
    case Model::kUniform: {
      WorkloadOptions opt;
      opt.num_accounts = num_accounts;
      opt.shard_bits = shard_bits;
      opt.cross_shard_ratio = cross_shard_ratio;
      opt.zipf_s = zipf_s;
      opt.amount_min = amount_min;
      opt.amount_max = amount_max;
      opt.seed = seed;
      return std::make_unique<WorkloadGenerator>(opt);
    }
    case Model::kZipf:
      return std::make_unique<ZipfTrafficModel>(*this);
    case Model::kFlashCrowd:
      return std::make_unique<FlashCrowdTrafficModel>(*this);
    case Model::kContract:
      return std::make_unique<ContractTrafficModel>(*this);
  }
  return std::make_unique<ZipfTrafficModel>(*this);
}

std::unique_ptr<ArrivalProcess> Spec::BuildArrival() const {
  switch (arrival) {
    case Arrival::kConstant:
      return std::make_unique<ConstantArrival>();
    case Arrival::kBursty:
      return std::make_unique<BurstyArrival>(period_s, duty, peak);
    case Arrival::kDiurnal:
      return std::make_unique<DiurnalArrival>(period_s, peak);
    case Arrival::kFlash:
      return std::make_unique<FlashArrival>(at_s, dur_s, peak);
  }
  return std::make_unique<ConstantArrival>();
}

// --- ZipfTrafficModel ------------------------------------------------------

namespace {
// `spec` with its Zipf exponent defaulted to `s` when unset.
Spec WithSkew(Spec spec, double s) {
  if (spec.zipf_s <= 0) spec.zipf_s = s;
  return spec;
}
}  // namespace

ZipfTrafficModel::ZipfTrafficModel(const Spec& spec)
    : spec_(WithSkew(spec, 0.99)),
      rng_(spec.seed),
      zipf_(spec_.num_accounts, spec_.zipf_s) {}

tx::Transaction ZipfTrafficModel::Next() {
  tx::Transaction t;
  t.from = 1 + zipf_.Next(&rng_);
  for (int tries = 0; tries < 64; ++tries) {
    state::AccountId r = 1 + zipf_.Next(&rng_);
    if (r != t.from) {
      t.to = r;
      break;
    }
  }
  if (t.to == 0) t.to = t.from == 1 ? 2 : 1;
  t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
  t.nonce = nonces_[t.from]++;
  return t;
}

std::string ZipfTrafficModel::Describe() const {
  return "{\"model\":\"zipf\",\"s\":" + FormatG(spec_.zipf_s) +
         ",\"accounts\":" + FmtU(spec_.num_accounts) +
         ",\"seed\":" + FmtU(spec_.seed) + "}";
}

// --- FlashCrowdTrafficModel ------------------------------------------------

FlashCrowdTrafficModel::FlashCrowdTrafficModel(const Spec& spec)
    : spec_(spec), rng_(spec.seed) {}

state::AccountId FlashCrowdTrafficModel::HotBaseFor(uint64_t n) const {
  const uint64_t epoch = n / spec_.rotate_every;
  const uint64_t span = spec_.num_accounts - spec_.hot_size;
  // Large odd stride walks the account space without revisiting quickly.
  return 1 + (epoch * (spec_.hot_size * 17 + 1)) % (span + 1);
}

tx::Transaction FlashCrowdTrafficModel::Next() {
  const uint64_t n = spec_.num_accounts;
  const state::AccountId hot_base = HotBaseFor(emitted_);
  ++emitted_;
  tx::Transaction t;
  t.from = 1 + rng_.NextBelow(n);
  const bool hot = rng_.NextBernoulli(spec_.hot_fraction);
  for (int tries = 0; tries < 64; ++tries) {
    state::AccountId r = hot ? hot_base + rng_.NextBelow(spec_.hot_size)
                             : 1 + rng_.NextBelow(n);
    if (r != t.from) {
      t.to = r;
      break;
    }
  }
  if (t.to == 0) t.to = t.from == 1 ? 2 : 1;
  t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
  t.nonce = nonces_[t.from]++;
  return t;
}

std::string FlashCrowdTrafficModel::Describe() const {
  return "{\"model\":\"flashcrowd\",\"hot_size\":" + FmtU(spec_.hot_size) +
         ",\"hot_fraction\":" + FormatG(spec_.hot_fraction) +
         ",\"rotate_every\":" + FmtU(spec_.rotate_every) +
         ",\"accounts\":" + FmtU(spec_.num_accounts) +
         ",\"seed\":" + FmtU(spec_.seed) + "}";
}

// --- ContractTrafficModel --------------------------------------------------

ContractTrafficModel::ContractTrafficModel(const Spec& spec)
    : spec_(WithSkew(spec, 0.8)),
      rng_(spec.seed),
      zipf_(spec_.num_contracts, spec_.zipf_s) {}

void ContractTrafficModel::GenerateCall() {
  // Contract ids occupy [1, num_contracts]; user keys the rest of the space.
  // Every transfer of a call deposits into the call's contract: the
  // contract never spends, so its client-side nonce never diverges when a
  // conflicting transfer is discarded, and a call's contention comes purely
  // from its shared write target (the §IV-D2 conflict-discard regime).
  const state::AccountId contract = 1 + zipf_.Next(&rng_);
  const uint64_t user_span = spec_.num_accounts - spec_.num_contracts;
  for (uint32_t i = 0; i + 1 < spec_.contract_keys; ++i) {
    state::AccountId user =
        spec_.num_contracts + 1 + rng_.NextBelow(user_span);
    tx::Transaction t;
    t.from = user;
    t.to = contract;
    t.amount = rng_.NextInRange(spec_.amount_min, spec_.amount_max);
    t.nonce = nonces_[t.from]++;
    queue_.push_back(t);
  }
}

tx::Transaction ContractTrafficModel::Next() {
  if (queue_.empty()) GenerateCall();
  tx::Transaction t = queue_.front();
  queue_.pop_front();
  return t;
}

std::string ContractTrafficModel::Describe() const {
  return "{\"model\":\"contract\",\"keys_per_call\":" +
         FmtU(spec_.contract_keys) +
         ",\"contracts\":" + FmtU(spec_.num_contracts) +
         ",\"contract_skew\":" + FormatG(spec_.zipf_s) +
         ",\"accounts\":" + FmtU(spec_.num_accounts) +
         ",\"seed\":" + FmtU(spec_.seed) + "}";
}

// --- Arrival processes -----------------------------------------------------

std::string ConstantArrival::Describe() const {
  return "{\"arrival\":\"constant\"}";
}

BurstyArrival::BurstyArrival(double period_s, double duty, double peak)
    : period_s_(period_s), duty_(duty), peak_(peak) {
  // Off-rate keeps the long-run mean at 1 while the on-window runs at
  // `peak`; saturating at 0 when the bursts alone exceed the mean budget.
  const double off = (1.0 - duty_ * peak_) / (1.0 - duty_);
  off_rate_ = off > 0 ? off : 0;
}

double BurstyArrival::RateAt(double t_s) const {
  const double phase = std::fmod(t_s, period_s_);
  return phase < duty_ * period_s_ ? peak_ : off_rate_;
}

std::string BurstyArrival::Describe() const {
  return "{\"arrival\":\"bursty\",\"period_s\":" + FormatG(period_s_) +
         ",\"duty\":" + FormatG(duty_) + ",\"peak\":" + FormatG(peak_) + "}";
}

DiurnalArrival::DiurnalArrival(double period_s, double peak)
    : period_s_(period_s),
      amplitude_(peak - 1 < 1 ? (peak - 1 > 0 ? peak - 1 : 0) : 1) {}

double DiurnalArrival::RateAt(double t_s) const {
  constexpr double kTau = 6.283185307179586;
  return 1.0 + amplitude_ * std::sin(kTau * t_s / period_s_);
}

std::string DiurnalArrival::Describe() const {
  return "{\"arrival\":\"diurnal\",\"period_s\":" + FormatG(period_s_) +
         ",\"amplitude\":" + FormatG(amplitude_) + "}";
}

FlashArrival::FlashArrival(double at_s, double dur_s, double peak)
    : at_s_(at_s), dur_s_(dur_s), peak_(peak) {}

double FlashArrival::RateAt(double t_s) const {
  return (t_s >= at_s_ && t_s < at_s_ + dur_s_) ? peak_ : 1.0;
}

std::string FlashArrival::Describe() const {
  return "{\"arrival\":\"flash\",\"at_s\":" + FormatG(at_s_) +
         ",\"dur_s\":" + FormatG(dur_s_) + ",\"peak\":" + FormatG(peak_) + "}";
}

}  // namespace porygon::workload
