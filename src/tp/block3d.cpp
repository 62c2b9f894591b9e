#include "tp/block3d.hpp"

#include <cassert>

namespace ca::tp {

namespace {
/// `parts` run in order as one module.
template <class... M>
std::unique_ptr<nn::Module> chain(std::unique_ptr<M>... parts) {
  auto seq = std::make_unique<nn::Sequential>();
  (seq->add(std::move(parts)), ...);
  return seq;
}
}  // namespace

Attention3D::Attention3D(const Env& env, std::string name, std::int64_t hidden,
                         std::int64_t heads, std::uint64_t seed)
    : AttentionBody(
          env, heads,
          {std::make_unique<Linear3D>(env, name + ".qkv", hidden, 3 * hidden,
                                      seed, /*with_bias=*/true,
                                      /*col_sections=*/3),
           chain(std::make_unique<Convert3D>(env),
                 std::make_unique<Linear3D>(env, name + ".proj", hidden,
                                            hidden, seed + 1),
                 std::make_unique<Convert3D>(env))}) {
  assert(hidden % heads == 0);
}

TransformerBlock3D::TransformerBlock3D(const Env& env, std::string name,
                                       std::int64_t hidden, std::int64_t heads,
                                       std::int64_t ffn_hidden,
                                       std::uint64_t seed)
    : PreLNBlock({ShardedLayerNorm::cube(env, name + ".ln1", hidden),
                  std::make_unique<Attention3D>(env, name + ".attn", hidden,
                                                heads, seed),
                  ShardedLayerNorm::cube(env, name + ".ln2", hidden),
                  chain(std::make_unique<Mlp3D>(env, name + ".mlp", hidden,
                                                ffn_hidden, seed + 100),
                        std::make_unique<Convert3D>(env))}) {}

}  // namespace ca::tp
