#include "engine/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/crc32.hpp"
#include "core/serialize.hpp"
#include "tp/relayout.hpp"

namespace ca::engine {

namespace {

/// Discards everything written to it — non-root ranks stream their copy of
/// an SPMD save here so every rank runs the same gather sequence.
class NullBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return c == EOF ? '\0' : c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// ---- the section sequence ----------------------------------------------------

/// Read one framed section and verify its CRC. Every structural failure —
/// wrong name, negative/truncated length, short payload, CRC mismatch — is
/// surfaced as a CheckpointCorruptError anchored at the section's offset.
std::string read_section(std::istream& is, const std::string& expect,
                         const std::string& path) {
  const auto offset = static_cast<std::int64_t>(is.tellg());
  try {
    const std::string name = core::read_str(is);
    if (name != expect) {
      throw std::runtime_error("expected section '" + expect + "', found '" +
                               name + "'");
    }
    const std::int64_t len = core::read_i64(is);
    if (len < 0) throw std::runtime_error("negative section length");
    const auto truncated = [len](std::int64_t got) {
      return std::runtime_error("truncated payload (" + std::to_string(got) +
                                " of " + std::to_string(len) + " bytes)");
    };
    const std::int64_t left = core::remaining_bytes(is);
    if (left >= 0 && len > left) throw truncated(left);
    std::string payload(static_cast<std::size_t>(len), '\0');
    is.read(payload.data(), len);
    if (!is || is.gcount() != len) throw truncated(is.gcount());
    // The writer zero-extends the 32-bit CRC, so damage to the high bytes
    // is a mismatch too.
    const std::int64_t stored = core::read_i64(is);
    const std::uint32_t actual = core::crc32(payload.data(), payload.size());
    if (stored != actual) {
      throw std::runtime_error("crc mismatch (stored " +
                               std::to_string(stored) + ", actual " +
                               std::to_string(actual) + ")");
    }
    return payload;
  } catch (const CheckpointCorruptError&) {
    throw;
  } catch (const std::exception& e) {
    throw CheckpointCorruptError(path, expect, offset, e.what());
  }
}

/// Checks the magic, then hands out a checkpoint's sections in order:
/// "meta", "params", "optim". A CACKPT01 file holds the same section bodies
/// unframed, back to back, so its next section is simply the rest of the
/// stream.
class SectionReader {
 public:
  SectionReader(std::istream& is, const std::string& path)
      : is_(is), path_(path) {
    char magic[sizeof(kCheckpointMagic)] = {};
    is.read(magic, sizeof(magic));
    if (is && std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0) {
      version_ = 1;
    } else if (!is ||
               std::memcmp(magic, kCheckpointMagicV2, sizeof(magic)) != 0) {
      throw CheckpointCorruptError(path, "magic", 0, "bad or truncated magic");
    }
  }

  std::istream& next(const std::string& name) {
    if (version_ == 1) return is_;
    section_ = std::istringstream(read_section(is_, name, path_));
    return section_;
  }

 private:
  std::istream& is_;
  const std::string& path_;
  int version_ = 2;
  std::istringstream section_;
};

/// Emit the section sequence every checkpoint shares — magic, meta (the
/// resume step), params, optim — with the two bodies written by the caller.
template <class Params, class Optim>
void write_checkpoint(std::ostream& os, std::int64_t step, Params params,
                      Optim optim) {
  // [name][i64 length][payload][i64 crc32]
  const auto section = [&os](const std::string& name, auto body) {
    std::ostringstream buf;
    body(buf);
    const std::string payload = buf.str();
    core::write_str(os, name);
    core::write_i64(os, static_cast<std::int64_t>(payload.size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    core::write_i64(os, static_cast<std::int64_t>(
                            core::crc32(payload.data(), payload.size())));
  };
  os.write(kCheckpointMagicV2, sizeof(kCheckpointMagicV2));
  section("meta", [step](std::ostream& s) { core::write_i64(s, step); });
  section("params", params);
  section("optim", optim);
}

/// Read the section sequence write_checkpoint emits; returns the step.
template <class Params, class Optim>
std::int64_t read_checkpoint(std::istream& is, const std::string& path,
                             Params params, Optim optim) {
  SectionReader sections(is, path);
  const std::int64_t step = core::read_i64(sections.next("meta"));
  params(sections.next("params"));
  optim(sections.next("optim"));
  return step;
}

std::ifstream open_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot read " + path);
  return is;
}

// ---- tensor re-layout ---------------------------------------------------------

bool needs_gather(const nn::Parameter& p) {
  return p.shard.has_value() && p.shard->partitioned();
}

/// Write `x` — parameter `p`'s value or any same-shaped per-element state of
/// it (Adam moments, SGD velocity) — in full form: gathered across the
/// tensor group through p's ShardSpec when p is TP-sharded, raw otherwise.
void write_tensor(std::ostream& os, const tp::Env& env, const nn::Parameter& p,
                  const tensor::Tensor& x) {
  const auto put = [&os](const tensor::Tensor& t) {
    core::write_i64(os, t.numel());
    core::write_f32s(os, t.data().data(), t.numel());
  };
  if (needs_gather(p)) {
    put(tp::gather_full(env.ctx->tensor_group(env.grank), env.grank, *p.shard,
                        x));
  } else {
    put(x);
  }
}

/// Read one write_tensor entry into `x`, this rank's local form of `p`: a
/// full-form entry is re-sliced onto p's (possibly different) shard layout.
void read_tensor(std::istream& is, const nn::Parameter& p, tensor::Tensor& x) {
  const std::int64_t n = core::read_i64(is);
  if (n == x.numel() && !needs_gather(p)) {
    core::read_f32s(is, x.data().data(), n);
  } else if (p.shard.has_value() && n == p.shard->full_numel()) {
    std::vector<float> full(static_cast<std::size_t>(n));
    core::read_f32s(is, full.data(), n);
    tp::slice_from_full(*p.shard, full, x.data());
  } else {
    throw std::runtime_error(
        "checkpoint: tensor of '" + p.name + "' has " + std::to_string(n) +
        " elements; model expects " + std::to_string(x.numel()) +
        (p.shard.has_value()
             ? " local / " + std::to_string(p.shard->full_numel()) + " full"
             : ""));
  }
}

void write_params(std::ostream& os, const tp::Env& env, nn::Module& model) {
  const auto params = model.parameters();
  core::write_i64(os, static_cast<std::int64_t>(params.size()));
  for (const nn::Parameter* p : params) {
    core::write_str(os, p->name);
    write_tensor(os, env, *p, p->value);
  }
}

void read_params(std::istream& is, nn::Module& model) {
  const auto params = model.parameters();
  if (core::read_i64(is) != static_cast<std::int64_t>(params.size())) {
    throw std::runtime_error("checkpoint: parameter count mismatch");
  }
  for (nn::Parameter* p : params) {
    const std::string name = core::read_str(is);
    if (name != p->name) {
      throw std::runtime_error("checkpoint: parameter mismatch: file has '" +
                               name + "', model has '" + p->name + "'");
    }
    read_tensor(is, *p, p->value);
  }
}

/// The DP/TP reader behind both load forms. Optimizer state goes through the
/// same tensor reader as the parameters, so moments survive a tensor-grid
/// change.
std::int64_t read_dp_checkpoint(std::istream& is, const std::string& path,
                                nn::Module& model, optim::Optimizer& opt) {
  return read_checkpoint(
      is, path, [&](std::istream& s) { read_params(s, model); },
      [&](std::istream& s) {
        opt.load_state(s, [&](std::istream& i, std::size_t idx,
                              tensor::Tensor& x) {
          read_tensor(i, *opt.params().at(idx), x);
        });
      });
}

// ---- file plumbing ----------------------------------------------------------

/// Flip one bit of the freshly-written temp file when a kCkptCorrupt fault
/// matured at `step` — past the magic, so the CRC framing (not a bad-magic
/// error) is what catches it. Offset -1 picks a seeded position.
void maybe_corrupt(const tp::Env& env, const std::string& tmp,
                   std::int64_t step) {
  const sim::FaultInjector* fi = env.dev().fault();
  std::int64_t off = -1;
  if (fi == nullptr || !fi->corrupt_checkpoint(step, &off)) return;
  std::fstream f(tmp, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) throw std::runtime_error("checkpoint: cannot reopen " + tmp);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::int64_t>(f.tellg());
  const std::int64_t lo = sizeof(kCheckpointMagicV2);
  if (size <= lo) return;
  if (off < 0) {
    off = lo + static_cast<std::int64_t>(
                   fi->plan().jitter(static_cast<std::uint64_t>(step)) *
                   static_cast<double>(size - lo));
  }
  off = std::min(std::max(off, lo), size - 1);
  f.seekg(off);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x20);
  f.seekp(off);
  f.write(&byte, 1);
}

/// Run `body(os)` with the virtual root writing to `path` (temp + atomic
/// rename) and every other rank writing to a discarding stream, then
/// barrier the context world.
template <class Body>
void spmd_save(const tp::Env& env, const std::string& path, std::int64_t step,
               Body body) {
  if (env.ctx->virtual_rank(env.grank) == 0) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("checkpoint: cannot write " + tmp);
      body(os);
      os.flush();
      if (!os) throw std::runtime_error("checkpoint: write failed: " + tmp);
    }
    maybe_corrupt(env, tmp, step);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("checkpoint: rename failed: " + path);
    }
  } else {
    NullBuf sink;
    std::ostream os(&sink);
    body(os);
  }
  env.ctx->world_group().barrier(env.grank);
}

}  // namespace

// ---- DP/TP variant ----------------------------------------------------------

void serialize_checkpoint(const tp::Env& env, nn::Module& model,
                          optim::Optimizer& opt, std::int64_t step,
                          std::ostream& os) {
  write_checkpoint(
      os, step, [&](std::ostream& s) { write_params(s, env, model); },
      [&](std::ostream& s) {
        opt.save_state(s, [&](std::ostream& o, std::size_t idx,
                              const tensor::Tensor& x) {
          write_tensor(o, env, *opt.params().at(idx), x);
        });
      });
}

std::int64_t deserialize_checkpoint(const tp::Env& env, nn::Module& model,
                                    optim::Optimizer& opt, std::istream& is) {
  (void)env;  // pure local reads: shard specs live on the parameters
  return read_dp_checkpoint(is, "<memory>", model, opt);
}

void save_checkpoint(const tp::Env& env, nn::Module& model,
                     optim::Optimizer& opt, std::int64_t step,
                     const std::string& path) {
  // Gathered full-form state is identical on every rank, so only the virtual
  // root's stream reaches the file; the others run the same gathers into a
  // discarding sink.
  spmd_save(env, path, step, [&](std::ostream& os) {
    serialize_checkpoint(env, model, opt, step, os);
  });
}

std::int64_t load_checkpoint(const tp::Env& env, nn::Module& model,
                             optim::Optimizer& opt, const std::string& path) {
  (void)env;  // pure local reads: every rank loads the same file
  auto is = open_checkpoint(path);
  return read_dp_checkpoint(is, path, model, opt);
}

// ---- ZeRO variant -----------------------------------------------------------

void save_checkpoint(const tp::Env& env, nn::Module& model,
                     zero::ZeroOptimizer& opt, std::int64_t step,
                     const std::string& path) {
  (void)model;  // parameter values ARE the gathered master weights
  spmd_save(env, path, step, [&](std::ostream& os) {
    write_checkpoint(
        os, step, [](std::ostream& s) { core::write_i64(s, 0); },  // no params
        [&](std::ostream& s) { opt.save_state(s); });  // SPMD gathers
  });
}

std::int64_t load_checkpoint(const tp::Env& env, nn::Module& model,
                             zero::ZeroOptimizer& opt,
                             const std::string& path) {
  (void)env;
  (void)model;
  auto is = open_checkpoint(path);
  return read_checkpoint(
      is, path,
      [&](std::istream& s) {
        if (core::read_i64(s) != 0) {
          throw std::runtime_error(
              "checkpoint: expected a ZeRO checkpoint (empty params section) "
              "in " + path);
        }
      },
      // SPMD: stages 1-2 re-gather parameter values
      [&](std::istream& s) { opt.load_state(s); });
}

std::int64_t checkpoint_step(const std::string& path) {
  auto is = open_checkpoint(path);
  return core::read_i64(SectionReader(is, path).next("meta"));
}

}  // namespace ca::engine
