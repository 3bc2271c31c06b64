// Hyper-parameters of the relation-extraction models (paper Table III).
#ifndef IMR_RE_CONFIG_H_
#define IMR_RE_CONFIG_H_

#include <string>

#include "nn/encoders.h"

namespace imr::re {

enum class Aggregation {
  kAttention,  // selective attention (Lin et al. 2016)
  kAverage,    // uniform average of sentence encodings
  kMax,        // elementwise max over sentence encodings
};

struct PaModelConfig {
  int num_relations = 0;            // required, including NA
  std::string encoder = "pcnn";     // pcnn | cnn | gru | bgwa
  Aggregation aggregation = Aggregation::kAttention;
  bool use_mutual_relation = false; // the paper's MR component
  bool use_entity_type = false;     // the paper's T component
  int type_dim = 20;                // kt
  int mutual_relation_dim = 128;    // ke (LINE embedding dim)
  // Weight of an auxiliary cross-entropy on the raw RE logits when the
  // fusion components are active. Keeps the text path training even while
  // the (much faster to learn) type/MR heads dominate the fused loss early
  // on; 0 disables.
  float auxiliary_re_loss = 0.5f;
  nn::EncoderConfig encoder_config; // kw/kp/l/k/p (Table III defaults)
};

struct TrainerConfig {
  int epochs = 60;
  int batch_size = 160;      // n (Table III)
  std::string optimizer = "sgd";  // sgd | adagrad | adam
  float learning_rate = 0.3f;// lr (Table III; use ~0.01 for adam)
  float lr_decay = 0.98f;    // multiplicative per-epoch decay
  float weight_decay = 1e-4f;
  float clip_norm = 5.0f;
  // Adversarial training (Wu et al. 2017, paper Section II-B): when > 0,
  // each batch is trained a second time with the word-embedding table
  // perturbed by epsilon * sign(grad) (FGSM). Regularises against the
  // wrong-label noise of distant supervision.
  float adversarial_epsilon = 0.0f;
  uint64_t seed = 101;
  bool verbose = false;
  // Selects the batch step; 0 defers to util::GlobalThreads(). At 1 the
  // original sequential batch loop (and rng stream) runs bit-exactly. Any
  // value above 1 selects the data-parallel step, whose workers are the
  // global pool's (util::SetGlobalThreads), not this many: each batch
  // splits into a FIXED number of chunks with per-chunk rngs and gradient
  // sinks, merged in chunk order, so it gives the same floats at every
  // pool size (though not the sequential step's, whose dropout draws
  // interleave differently).
  int threads = 0;
};

/// Paper defaults for a dataset with `num_relations` relations and a
/// vocabulary of `vocab_size` words.
PaModelConfig PaperDefaults(int num_relations, int vocab_size);

}  // namespace imr::re

#endif  // IMR_RE_CONFIG_H_
