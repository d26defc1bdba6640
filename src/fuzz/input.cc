#include "src/fuzz/input.h"

#include "src/support/record.h"

namespace ddt {
namespace fuzz {

FuzzInput FromPathSeed(const PathSeed& seed, const FaultPlan& plan, const std::string& label) {
  FuzzInput input;
  input.label = label;
  input.fields.reserve(seed.inputs.size());
  for (const SolvedInput& solved : seed.inputs) {
    FuzzField field;
    field.origin = solved.origin;
    field.width = solved.width;
    field.value = solved.value;
    field.var_name = solved.var_name;
    input.fields.push_back(std::move(field));
  }
  input.interrupt_schedule = seed.interrupt_schedule;
  input.alternatives = seed.alternatives;
  input.fault_plan = plan;
  return input;
}

std::map<std::string, uint64_t> GuidedInputs(const FuzzInput& input) {
  std::map<std::string, uint64_t> guided;
  for (const FuzzField& field : input.fields) {
    guided[OriginKeyString(field.origin)] = field.value;
  }
  return guided;
}

std::vector<SolvedInput> ToSolvedInputs(const FuzzInput& input) {
  std::vector<SolvedInput> solved;
  solved.reserve(input.fields.size());
  for (const FuzzField& field : input.fields) {
    SolvedInput s;
    s.var_name = field.var_name;
    s.origin = field.origin;
    s.width = field.width;
    s.value = field.value;
    s.proximate = false;
    solved.push_back(std::move(s));
  }
  return solved;
}

std::string EncodeFuzzInput(const FuzzInput& input) {
  ByteWriter w;
  w.Str(input.label);
  w.U32(static_cast<uint32_t>(input.fields.size()));
  for (const FuzzField& field : input.fields) {
    w.U8(static_cast<uint8_t>(field.origin.source));
    w.Str(field.origin.label);
    w.U64(field.origin.aux);
    w.U64(field.origin.seq);
    w.U8(field.width);
    w.U64(field.value);
    w.Str(field.var_name);
  }
  w.U32(static_cast<uint32_t>(input.interrupt_schedule.size()));
  for (uint32_t crossing : input.interrupt_schedule) {
    w.U32(crossing);
  }
  w.U32(static_cast<uint32_t>(input.alternatives.size()));
  for (const auto& [seq, label] : input.alternatives) {
    w.U32(seq);
    w.Str(label);
  }
  EncodeFaultPlan(input.fault_plan, &w);
  return w.Take();
}

bool DecodeFuzzInput(std::string_view bytes, FuzzInput* input) {
  ByteReader r(bytes);
  input->label = r.Str();
  input->fields.resize(r.Count(34));  // a field's fixed-size part
  for (FuzzField& field : input->fields) {
    uint8_t source = r.U8();
    if (source > static_cast<uint8_t>(VarOrigin::Source::kTest)) {
      return false;
    }
    field.origin.source = static_cast<VarOrigin::Source>(source);
    field.origin.label = r.Str();
    field.origin.aux = r.U64();
    field.origin.seq = r.U64();
    field.width = r.U8();
    field.value = r.U64();
    field.var_name = r.Str();
  }
  input->interrupt_schedule.resize(r.Count(4));
  for (uint32_t& crossing : input->interrupt_schedule) {
    crossing = r.U32();
  }
  input->alternatives.resize(r.Count(8));
  for (auto& [seq, label] : input->alternatives) {
    seq = r.U32();
    label = r.Str();
  }
  return DecodeFaultPlan(&r, &input->fault_plan) && r.Done();
}

}  // namespace fuzz
}  // namespace ddt
