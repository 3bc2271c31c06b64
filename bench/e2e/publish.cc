#include <cstdio>
#include <cstring>
#include <set>

#include "workloads.h"

namespace imr::e2e {

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

}  // namespace

Publisher::Publisher(serve::ServeRouter* router, ModelParts parts,
                     const graph::EmbeddingStore& base, std::string dir,
                     uint64_t seed, SpanBuffer* spans)
    : router_(router),
      parts_(parts),
      working_(base.num_vertices(), base.dim()),
      dir_(std::move(dir)),
      rng_(seed),
      spans_(spans) {
  std::memcpy(working_.Vector(0), base.raw(),
              base.value_count() * sizeof(float));
}

bool Publisher::PublishNext() {
  if (!error_.empty()) return false;
  const uint64_t update = attempted_++;
  const bool full = (update + 1) % 8 == 0;

  // Perturb 0.2% of the rows, as a small online-training step would.
  const int rows = std::max(1, working_.num_vertices() / 500);
  std::set<int> picked;
  while (static_cast<int>(picked.size()) < rows) {
    picked.insert(static_cast<int>(rng_.UniformInt(
        static_cast<uint64_t>(working_.num_vertices()))));
  }
  Edit edit;
  edit.rows.assign(picked.begin(), picked.end());
  for (const int row : edit.rows) {
    float* values = working_.Vector(row);
    for (int d = 0; d < working_.dim(); ++d) {
      values[d] += static_cast<float>(rng_.Uniform(-0.01, 0.01));
      edit.values.push_back(values[d]);
    }
  }

  util::Status status = util::OkStatus();
  if (full) {
    ScopedSpan publish(spans_, "publish.full", 0, 0);
    const std::string path = dir_ + "/full.imrs";
    const std::string temp = path + ".tmp";
    const int64_t save_start = NowNs();
    {
      ScopedSpan save(spans_, "serve.snapshot.save", publish.id(), 0);
      status = serve::SaveSnapshot(
          *parts_.model, *parts_.vocab, working_, *parts_.relation_names,
          *parts_.entities, parts_.bag_options, update, "imr_e2e publisher",
          temp, nullptr, parts_.knn);
      if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
        status = util::IoError("rename " + temp + " -> " + path);
      }
    }
    full_save_ms.push_back(MsSince(save_start));
    if (status.ok()) {
      const int64_t reload_start = NowNs();
      {
        ScopedSpan reload(spans_, "serve.router.reload", publish.id(), 0);
        status = router_->Reload(path);
      }
      full_reload_ms.push_back(MsSince(reload_start));
    }
  } else {
    ScopedSpan publish(spans_, "publish.delta", 0, 0);
    const std::string path =
        dir_ + "/delta-" + std::to_string(update) + ".imrd";
    serve::DeltaSpec spec;
    spec.touched_rows = edit.rows;
    spec.include_quantized = false;  // the served snapshot carries no QEMB
    const int64_t save_start = NowNs();
    util::StatusOr<uint64_t> result_hash = util::Internal("not saved");
    {
      ScopedSpan save(spans_, "serve.delta.save", publish.id(), 0);
      result_hash = serve::SaveDelta(router_->content_hash(), working_,
                                     nullptr, spec, path);
    }
    const double save_ms = MsSince(save_start);
    status = result_hash.status();
    if (status.ok()) {
      const int64_t reload_start = NowNs();
      {
        ScopedSpan reload(spans_, "serve.router.reload_delta", publish.id(),
                          0);
        status = router_->ReloadDelta(path);
      }
      delta_reload_ms.push_back(MsSince(reload_start));
      delta_save_ms.push_back(save_ms);
      delta_publish_ms.push_back(MsSince(save_start));
      if (status.ok() && router_->content_hash() != *result_hash) {
        status = util::Internal("serving content hash != delta result hash");
      }
    }
    std::remove(path.c_str());
  }
  if (!status.ok()) {
    error_ = "update " + std::to_string(update) + ": " + status.ToString();
    return false;
  }
  ++published_;
  edits_.push_back(std::move(edit));
  published_generation_.store(router_->generation(), std::memory_order_release);
  return true;
}

}  // namespace imr::e2e
