// Dispatch-layer coverage: the typed handler registry that replaced the
// grdManager opcode switch.
#include <gtest/gtest.h>

#include <set>

#include "guardian/dispatch.hpp"
#include "guardian/execution.hpp"
#include "guardian/manager.hpp"
#include "guardian/session.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using protocol::Op;

TEST(DispatcherTest, BuiltinRegistryCoversEveryProtocolOp) {
  Dispatcher dispatcher;
  RegisterBuiltinHandlers(dispatcher);
  // Every op of the wire protocol has a handler — the enum is contiguous
  // from kRegisterClient to kResumeSession (the last opcode).
  for (auto raw = static_cast<std::uint32_t>(Op::kRegisterClient);
       raw <= static_cast<std::uint32_t>(Op::kResumeSession); ++raw) {
    const auto* descriptor = dispatcher.Find(static_cast<Op>(raw));
    ASSERT_NE(descriptor, nullptr) << "op " << raw;
    EXPECT_FALSE(descriptor->name.empty());
    EXPECT_TRUE(static_cast<bool>(descriptor->run));
  }
  EXPECT_EQ(dispatcher.size(),
            static_cast<std::size_t>(Op::kResumeSession) -
                static_cast<std::size_t>(Op::kRegisterClient) + 1);
}

TEST(DispatcherTest, HandlerNamesAreUnique) {
  Dispatcher dispatcher;
  RegisterBuiltinHandlers(dispatcher);
  std::set<std::string> names;
  for (const Op op : dispatcher.RegisteredOps())
    names.insert(dispatcher.Find(op)->name);
  EXPECT_EQ(names.size(), dispatcher.size());
}

TEST(DispatcherTest, OnlyRegistrationRunsWithoutASession) {
  Dispatcher dispatcher;
  RegisterBuiltinHandlers(dispatcher);
  // Registration and crash-recovery attach are the only ops a client may
  // issue before (or instead of) owning a live local session.
  for (const Op op : dispatcher.RegisteredOps()) {
    const auto* descriptor = dispatcher.Find(op);
    if (op == Op::kRegisterClient || op == Op::kResumeSession) {
      EXPECT_EQ(descriptor->session, SessionPolicy::kNotRequired)
          << descriptor->name;
    } else {
      EXPECT_EQ(descriptor->session, SessionPolicy::kRequired)
          << descriptor->name;
    }
  }
}

TEST(DispatcherTest, UnknownOpcodeIsNotRegistered) {
  Dispatcher dispatcher;
  RegisterBuiltinHandlers(dispatcher);
  EXPECT_EQ(dispatcher.Find(static_cast<Op>(0)), nullptr);
  EXPECT_EQ(dispatcher.Find(static_cast<Op>(0xDEAD)), nullptr);
}

// A new RPC is one Register call: decode/validate/execute compose into a
// descriptor the dispatcher runs end-to-end.
struct EchoReq {
  std::uint32_t value = 0;
};
Result<EchoReq> DecodeEcho(ipc::Reader& req) {
  EchoReq out;
  GRD_ASSIGN_OR_RETURN(out.value, req.Get<std::uint32_t>());
  return out;
}
Status ValidateEcho(HandlerContext&, const EchoReq& req) {
  if (req.value == 0) return InvalidArgument("zero is not echoable");
  return OkStatus();
}
Result<ipc::Writer> ExecuteEcho(HandlerContext&, EchoReq& req) {
  ipc::Writer out;
  out.Put<std::uint32_t>(req.value + 1);
  return out;
}

TEST(DispatcherTest, TypedRegistrationRunsAllThreeStages) {
  Dispatcher dispatcher;
  const auto custom_op = static_cast<Op>(900);
  dispatcher.Register<EchoReq>(custom_op, "Echo", SessionPolicy::kNotRequired,
                               DecodeEcho, ValidateEcho, ExecuteEcho);
  const auto* descriptor = dispatcher.Find(custom_op);
  ASSERT_NE(descriptor, nullptr);

  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  ExecutionContext exec({&gpu}, ManagerOptions{});
  SessionRegistry sessions;
  HandlerContext ctx{exec, sessions, nullptr, nullptr, &dispatcher};

  {  // happy path: decode → validate → execute
    ipc::Writer request;
    request.Put<std::uint32_t>(41);
    ipc::Bytes raw = std::move(request).Take();
    ipc::Reader reader(raw);
    auto out = descriptor->run(ctx, reader);
    ASSERT_TRUE(out.ok()) << out.status();
    ipc::Bytes payload = std::move(*out).Take();
    ipc::Reader result(payload);
    EXPECT_EQ(*result.Get<std::uint32_t>(), 42u);
  }
  {  // validate stage rejects
    ipc::Writer request;
    request.Put<std::uint32_t>(0);
    ipc::Bytes raw = std::move(request).Take();
    ipc::Reader reader(raw);
    auto out = descriptor->run(ctx, reader);
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
  {  // decode stage rejects truncated input
    ipc::Bytes raw{0x01};
    ipc::Reader reader(raw);
    auto out = descriptor->run(ctx, reader);
    EXPECT_EQ(out.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(DispatcherTest, DuplicateRegistrationFailsLoudly) {
  Dispatcher dispatcher;
  const auto custom_op = static_cast<Op>(901);
  dispatcher.Register<EchoReq>(custom_op, "Echo", SessionPolicy::kNotRequired,
                               DecodeEcho, ValidateEcho, ExecuteEcho);
  EXPECT_THROW(dispatcher.Register<EchoReq>(custom_op, "EchoAgain",
                                            SessionPolicy::kNotRequired,
                                            DecodeEcho, nullptr, ExecuteEcho),
               std::logic_error);
  // The original handler still serves.
  EXPECT_EQ(dispatcher.Find(custom_op)->name, "Echo");
}

TEST(DispatcherTest, ManagerRejectsUnknownOpThroughRegistry) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  ipc::Writer request;
  request.Put<std::uint32_t>(0xBEEF);
  request.Put<std::uint64_t>(0);  // client
  request.Put<std::uint64_t>(0);  // trace_id
  request.Put<std::uint64_t>(0);  // span_id
  const auto response = manager.HandleRequest(std::move(request).Take());
  auto decoded = protocol::DecodeResponse(response);
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace grd::guardian
