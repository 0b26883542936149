#include "hyrise.hpp"

#include "persistence/wal.hpp"
#include "plugin/plugin_manager.hpp"
#include "scheduler/abstract_scheduler.hpp"
#include "utils/gdfs_cache.hpp"

namespace hyrise {

namespace {

std::unique_ptr<Hyrise>& Instance() {
  static auto instance = std::unique_ptr<Hyrise>{};
  return instance;
}

}  // namespace

Hyrise& Hyrise::Get() {
  auto& instance = Instance();
  if (!instance) {
    instance.reset(new Hyrise{});
  }
  return *instance;
}

void Hyrise::Reset() {
  auto& instance = Instance();
  if (instance) {
    instance->SetScheduler(std::make_shared<ImmediateExecutionScheduler>());
  }
  instance.reset(new Hyrise{});
}

Hyrise::Hyrise()
    : plugin_manager(std::make_unique<PluginManager>()),
      wal_manager(std::make_unique<persistence::WalManager>()),
      scheduler_(std::make_shared<ImmediateExecutionScheduler>()) {}

Hyrise::~Hyrise() = default;

void Hyrise::SetScheduler(std::shared_ptr<AbstractScheduler> scheduler) {
  if (scheduler_) {
    scheduler_->Finish();
  }
  scheduler_ = std::move(scheduler);
}

}  // namespace hyrise
