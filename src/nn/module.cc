#include "nn/module.h"

#include <algorithm>

#include "util/logging.h"
#include "util/serialization.h"

namespace imr::nn {

namespace {
constexpr uint32_t kParamsMagic = 0x494D5250;  // "IMRP"
constexpr uint32_t kParamsVersion = 1;
}  // namespace

std::vector<NamedParameter> Module::Parameters() const {
  std::vector<NamedParameter> out = params_;
  for (const auto& [name, child] : children_) {
    for (NamedParameter p : child->Parameters()) {
      p.name = name + "." + p.name;
      out.push_back(std::move(p));
    }
  }
  return out;
}

void Module::ZeroGrad() {
  for (auto& p : params_) p.tensor.ZeroGrad();
  for (auto& [name, child] : children_) child->ZeroGrad();
}

size_t Module::ParameterCount() const {
  size_t n = 0;
  for (const NamedParameter& p : Parameters()) n += p.tensor.size();
  return n;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

tensor::Tensor Module::RegisterParameter(const std::string& name,
                                         tensor::Tensor tensor) {
  tensor.set_requires_grad(true);
  params_.push_back({name, tensor});
  return tensor;
}

void Module::RegisterChild(const std::string& name, Module* child) {
  IMR_CHECK(child != nullptr);
  children_.emplace_back(name, child);
}

util::Status Module::SaveParameters(const std::string& path) const {
  util::BinaryWriter writer(path, kParamsMagic, kParamsVersion);
  IMR_RETURN_IF_ERROR(writer.status());
  WriteParameters(&writer);
  return writer.Close();
}

util::Status Module::LoadParameters(const std::string& path) {
  util::BinaryReader reader(path, kParamsMagic, kParamsVersion);
  IMR_RETURN_IF_ERROR(reader.status());
  return ReadParameters(&reader);
}

void Module::WriteParameters(util::BinaryWriter* writer) const {
  const auto params = Parameters();
  writer->WriteU64(params.size());
  for (const NamedParameter& p : params) {
    writer->WriteString(p.name);
    writer->WriteFloatVector(p.tensor.data());
  }
}

util::Status Module::ReadParameters(util::BinaryReader* reader) {
  auto params = Parameters();
  const uint64_t count = reader->ReadU64();
  IMR_RETURN_IF_ERROR(reader->status());
  if (count != params.size()) {
    return util::InvalidArgument(
        "parameter count mismatch in '" + reader->path() + "': file has " +
        std::to_string(count) + ", model has " +
        std::to_string(params.size()));
  }
  // Validate everything before mutating the model: a corrupt file must not
  // leave a half-loaded parameter set behind.
  std::vector<std::vector<float>> values(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const std::string name = reader->ReadString();
    values[i] = reader->ReadFloatVector();
    IMR_RETURN_IF_ERROR(reader->status());
    if (name != params[i].name) {
      return util::InvalidArgument(
          "parameter name mismatch in '" + reader->path() + "': expected " +
          params[i].name + ", file has " + name);
    }
    if (values[i].size() != params[i].tensor.size()) {
      return util::InvalidArgument(
          "parameter size mismatch for " + params[i].name + " in '" +
          reader->path() + "': file has " +
          std::to_string(values[i].size()) + " values, model needs " +
          std::to_string(params[i].tensor.size()));
    }
  }
  // Copy into the existing storage rather than replacing it: a parameter
  // built by Tensor::Zeros/Full holds a pooled buffer, and replacing the
  // vector would free that buffer behind the pool's back, so every model
  // load would drain the loading thread's pool.
  for (size_t i = 0; i < params.size(); ++i) {
    std::copy(values[i].begin(), values[i].end(),
              params[i].tensor.mutable_data().begin());
  }
  return util::OkStatus();
}

}  // namespace imr::nn
