#include "serve/server.hpp"

#include <chrono>
#include <span>
#include <stdexcept>

#include "nn/kernels/kernels_int.hpp"
#include "serve/deadline.hpp"
#include "serve/deploy_request.hpp"
#include "util/base64.hpp"
#include "util/strings.hpp"
#include "web/envelope.hpp"

namespace cnn2fpga::serve {

using cnn2fpga::util::format;
using web::api_error;
using web::api_ok;

namespace {

/// Payload size disagrees with the design's input shape. Split out from plain
/// std::invalid_argument so handle_predict can report code "shape_mismatch".
struct ShapeMismatchError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Decode the request's image payload into the design's input tensor.
/// Accepts "image_base64" (raw float32 little-endian CHW) or "image" (a JSON
/// array of numbers). Throws ShapeMismatchError when the payload length
/// disagrees with `shape`, std::invalid_argument for every other bad payload
/// (including type errors inside the JSON, which must not surface as server
/// faults).
tensor::Tensor decode_image(const json::Value& doc, const nn::Shape& shape) {
  const std::size_t expected = shape.elements();
  tensor::Tensor image{shape};
  try {
    if (const json::Value* encoded = doc.find("image_base64"); encoded != nullptr) {
      const std::string& text = encoded->as_string();
      // The payload is decoded straight into the tensor's float32 storage.
      const std::span<std::uint8_t> storage(reinterpret_cast<std::uint8_t*>(image.data()),
                                            expected * sizeof(float));
      if (util::base64_decode_into(text, storage)) return image;
      // Rejected: decode again only to tell bad base64, which wins, from a
      // payload of the wrong size.
      const auto bytes = util::base64_decode(text);
      if (!bytes) throw std::invalid_argument("image_base64 is not valid base64");
      throw ShapeMismatchError(format(
          "image_base64 decodes to %zu bytes; input %s needs %zu (float32 CHW)", bytes->size(),
          shape.to_string().c_str(), storage.size()));
    }
    if (const json::Value* array = doc.find("image"); array != nullptr) {
      const json::Array& values = array->as_array();
      if (values.size() != expected) {
        throw ShapeMismatchError(format("image has %zu values; input %s needs %zu",
                                        values.size(), shape.to_string().c_str(), expected));
      }
      for (std::size_t i = 0; i < values.size(); ++i) {
        image[i] = static_cast<float>(values[i].as_double());
      }
      return image;
    }
  } catch (const json::JsonError& e) {
    // e.g. image_base64 is not a string, image is not an array of numbers.
    // JsonError derives from std::runtime_error; rethrowing as
    // invalid_argument keeps these as 400s rather than 5xx.
    throw std::invalid_argument(format("predict: malformed image payload: %s", e.what()));
  }
  throw std::invalid_argument("predict: provide image_base64 or image");
}

json::Object design_summary(const DeployedDesign& deployed) {
  const core::NetworkDescriptor& descriptor = deployed.descriptor();
  json::Object out;
  out["design_id"] = deployed.id;
  out["name"] = descriptor.name;
  out["board"] = descriptor.board;
  out["precision"] = descriptor.precision.is_fixed ? descriptor.precision.fixed.name()
                                                   : std::string("float32");
  // The arithmetic serving runs in. The descriptor "precision" above
  // describes the generated HLS design; a fixed one serves as the integer
  // precision that computes its format (Q8.8 as int16, Q4.4 as int8).
  out["serve_precision"] = std::string(nn::serve_precision_name(deployed.precision));
  if (deployed.precision != nn::ServePrecision::kFloat32) {
    const QuantReport& quant = deployed.quant;
    json::Object quantization;
    quantization["validated"] = quant.validated;
    quantization["probes"] = quant.probes;
    quantization["max_abs_error"] = quant.max_abs_error;
    quantization["top1_agreement"] = quant.top1_agreement;
    quantization["matches_fixed_model"] = quant.matches_fixed_model;
    out["quantization"] = std::move(quantization);
  }
  out["input"] = deployed.net.input_shape().to_string();
  out["classes"] = descriptor.num_classes();
  out["latency_cycles"] = deployed.analysis.hls_report.latency_cycles;
  out["latency_seconds"] = deployed.hls_latency_seconds();
  out["fits"] = deployed.analysis.hls_report.fits();
  out["served"] = deployed.served.load(std::memory_order_relaxed);
  out["batches"] = deployed.batches.load(std::memory_order_relaxed);
  // What one image costs the generated hardware, whichever engine serves.
  out["modeled_us_per_image"] = deployed.invocation_seconds(1) * 1e6;
  out["breaker"] = std::string(deployed.breaker.state_name());
  return out;
}

/// Per-design breaker block keyed by design id.
json::Object breaker_summary(const DeployedDesign& deployed, bool include_retry) {
  json::Object one;
  one["state"] = std::string(deployed.breaker.state_name());
  one["consecutive_failures"] = deployed.breaker.consecutive_failures();
  if (include_retry) {
    one["retry_after_ms"] = deployed.breaker.retry_after_ms();
  } else {
    one["opens"] = deployed.breaker.opens();
  }
  return one;
}

/// The engine block of readyz and the metrics: which engine serves, the
/// microkernels it computes with (hosts of one fleet may differ in register
/// width), how many batches it runs at once (its executor's threads), and the
/// work waiting for it.
json::Object engine_summary(BackendId engine, const Executor& executor) {
  const std::size_t slots = executor.thread_count();
  const std::size_t queued = executor.queued();
  const std::size_t inflight = executor.running();
  const std::size_t pending = queued + inflight;
  json::Object out;
  out["name"] = std::string(backend_name(engine));
  out["slots"] = slots;
  out["queued"] = queued;
  out["inflight"] = inflight;
  out["pending"] = pending;
  out["saturated"] = pending > slots;  // work queued beyond its capacity
  // Every serving context runs the process-wide kernel engine.
  namespace ker = nn::kernels;
  const bool simd = ker::active() == ker::Kind::kAvx2;
  json::Object kernels;
  kernels["float"] =
      std::string(simd ? ker::float_microkernel_name(ker::float_microkernel()) : "scalar");
  kernels["int"] =
      std::string(simd ? ker::int_microkernel_name(ker::int_microkernel()) : "scalar");
  out["kernels"] = std::move(kernels);
  return out;
}

/// Seconds a shed client should back off: the p95 queue latency rounded up,
/// clamped to [1, 60] so the header is always a sane hint even before the
/// histogram has data.
std::uint64_t shed_retry_after_seconds(const ServeMetrics& metrics) {
  const std::uint64_t p95_us = metrics.queue_us.percentile(0.95);
  const std::uint64_t seconds = (p95_us + 999999) / 1000000;
  return seconds < 1 ? 1 : (seconds > 60 ? 60 : seconds);
}

/// Seconds equivalent of a breaker cooldown remainder, rounded up, >= 1.
std::uint64_t breaker_retry_after_seconds(std::uint64_t retry_after_ms) {
  const std::uint64_t seconds = (retry_after_ms + 999) / 1000;
  return seconds < 1 ? 1 : seconds;
}

}  // namespace

ServingRuntime::ServingRuntime(ServingConfig config)
    : config_(config),
      registry_(kRegistryCapacity, &metrics_, config.breaker, &faults_),
      executor_(config.batcher.engine == BackendId::kAccelerator ? 1 : config.worker_threads),
      batcher_(executor_, config.batcher, &metrics_, &faults_) {
  // CNN2FPGA_FAULTS / CNN2FPGA_FAULT_SEED arm injection before any request
  // can arrive (the HTTP server is installed on a constructed runtime).
  faults_.configure_from_env();
}

ServingRuntime::~ServingRuntime() { shutdown(); }

void ServingRuntime::shutdown() {
  if (stopped_.exchange(true)) return;
  batcher_.shutdown();
  executor_.shutdown();
}

web::HttpResponse ServingRuntime::handle_deploy(const web::HttpRequest& request) {
  if (stopped_.load()) return api_error(503, "shutdown", "serving runtime is shut down");

  web::HttpResponse rejected;
  std::optional<DeployRequest> parsed = parse_deploy_request(request.body, &rejected);
  if (!parsed) return rejected;

  DeployOutcome outcome;
  try {
    outcome = registry_.deploy(parsed->descriptor, parsed->weights, parsed->precision,
                               std::move(parsed->network));
  } catch (const InjectedFault& e) {
    return api_error(500, "internal", e.what());
  } catch (const std::bad_alloc&) {
    return api_error(500, "internal", "deploy: allocation failure");
  } catch (const std::runtime_error& e) {
    return api_error(400, "bad_request", e.what());  // weight/architecture mismatch
  } catch (const std::exception& e) {
    return api_error(500, "internal", e.what());
  }

  json::Object body = design_summary(*outcome.design);
  body["cache_hit"] = outcome.cache_hit;
  json::Array warnings;
  for (const std::string& warning : outcome.design->analysis.warnings) {
    warnings.push_back(warning);
  }
  body["warnings"] = std::move(warnings);
  const RegistryStats stats = registry_.stats();
  json::Object reg;
  reg["resident"] = registry_.size();
  reg["capacity"] = registry_.capacity();
  reg["hit_rate"] = stats.hit_rate();
  body["registry"] = std::move(reg);
  return api_ok(std::move(body));
}

web::HttpResponse ServingRuntime::handle_predict(const web::HttpRequest& request) {
  if (stopped_.load()) return api_error(503, "shutdown", "serving runtime is shut down");
  const auto arrival = std::chrono::steady_clock::now();

  json::Value doc;
  try {
    doc = json::parse(request.body);
  } catch (const json::JsonError& e) {
    return api_error(400, "bad_json", "request body is not valid JSON", e.what());
  }

  const json::Value* id = doc.find("design_id");
  if (id == nullptr || !id->is_string()) {
    return api_error(400, "bad_request", "predict: design_id is required (deploy first)");
  }

  // Deadline: the client's X-Deadline-Ms budget, else the server default.
  // The header is read, and a bad one refused, before the design is looked
  // up: that is where the router (serve/deadline.hpp) refuses it too.
  std::uint64_t deadline_ms = config_.default_deadline_ms;
  if (const auto header = request.headers.find("x-deadline-ms");
      header != request.headers.end()) {
    const std::optional<std::uint64_t> budget = parse_deadline_ms(header->second);
    if (!budget) return deadline_header_error(header->second);
    deadline_ms = *budget;
  }
  const auto deadline =
      deadline_ms == 0 ? Batcher::kNoDeadline : deadline_after(arrival, deadline_ms);

  std::shared_ptr<DeployedDesign> design = registry_.find(id->as_string());
  if (!design) {
    return api_error(404, "unknown_design",
                     format("design %s is not deployed", id->as_string().c_str()));
  }

  Prediction prediction;
  try {
    tensor::Tensor image = decode_image(doc, design->net.input_shape());
    // An uncontended request runs its batch on its connection's thread.
    prediction = batcher_.predict_wait(design, std::move(image), deadline);
  } catch (const ShapeMismatchError& e) {
    metrics_.predict_errors.add();
    return api_error(400, "shape_mismatch", e.what());
  } catch (const std::invalid_argument& e) {
    metrics_.predict_errors.add();
    return api_error(400, "bad_request", e.what());
  } catch (const OverloadedError& e) {
    web::HttpResponse response = api_error(429, "overloaded", e.what());
    response.headers["Retry-After"] = std::to_string(shed_retry_after_seconds(metrics_));
    return response;
  } catch (const DeadlineExceededError& e) {
    return api_error(504, "deadline_exceeded", e.what());
  } catch (const DesignUnavailableError& e) {
    web::HttpResponse response = api_error(503, "design_unavailable", e.what());
    response.headers["Retry-After"] =
        std::to_string(breaker_retry_after_seconds(e.retry_after_ms));
    return response;
  } catch (const ShutdownError& e) {
    return api_error(503, "shutdown", e.what());
  } catch (const std::bad_alloc&) {
    metrics_.predict_errors.add();
    return api_error(500, "internal", "predict: allocation failure");
  } catch (const std::exception& e) {
    // Execution errors (including injected faults) are server faults, not a
    // sign the runtime is shutting down.
    return api_error(500, "internal", e.what());
  }

  json::Object body;
  body["design_id"] = design->id;
  body["predicted"] = prediction.predicted;
  json::Array logits;
  for (float logit : prediction.logits) logits.push_back(logit);
  body["logits"] = std::move(logits);
  body["batch_size"] = prediction.batch_size;
  body["backend"] = std::string(backend_name(prediction.backend));
  body["precision"] = std::string(nn::serve_precision_name(prediction.precision));
  body["queue_us"] = prediction.queue_us;
  body["exec_us"] = prediction.exec_us;
  body["accel_us"] = prediction.accel_us;
  body["total_us"] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                            arrival)
          .count());
  return api_ok(std::move(body));
}

web::HttpResponse ServingRuntime::handle_designs(const web::HttpRequest&) {
  json::Array designs;
  for (const auto& deployed : registry_.list()) {
    designs.push_back(design_summary(*deployed));
  }
  const RegistryStats stats = registry_.stats();
  json::Object body;
  body["designs"] = std::move(designs);
  body["resident"] = registry_.size();
  body["capacity"] = registry_.capacity();
  body["hits"] = stats.hits;
  body["misses"] = stats.misses;
  body["evictions"] = stats.evictions;
  body["hit_rate"] = stats.hit_rate();
  return api_ok(std::move(body));
}

web::HttpResponse ServingRuntime::handle_metrics(const web::HttpRequest&) {
  json::Value metrics = metrics_.to_json();
  json::Object& body = metrics.as_object();
  json::Object reg;
  reg["resident"] = registry_.size();
  reg["capacity"] = registry_.capacity();
  body["registry"] = std::move(reg);
  json::Object pool;
  pool["worker_threads"] = executor_.thread_count();
  pool["backlog"] = executor_.backlog();
  pool["max_batch"] = batcher_.config().max_batch;
  pool["max_wait_us"] = batcher_.config().max_wait_us;
  pool["max_queue_depth"] = batcher_.config().max_queue_depth;
  pool["pending"] = batcher_.pending();
  pool["waiting"] = batcher_.waiting();
  body["pool"] = std::move(pool);
  body["engine"] = engine_summary(config_.batcher.engine, executor_);
  json::Object breakers;
  for (const auto& deployed : registry_.list()) {
    breakers[deployed->id] = breaker_summary(*deployed, /*include_retry=*/false);
  }
  body["breakers"] = std::move(breakers);
  if (faults_.enabled()) body["faults"] = faults_.to_json();
  return {200, "application/json", metrics.dump(), {}};
}

web::HttpResponse ServingRuntime::handle_readyz(const web::HttpRequest&) {
  const bool draining = stopped_.load();
  const std::size_t waiting = batcher_.waiting();
  const std::size_t capacity = config_.batcher.max_queue_depth;
  const bool saturated = capacity != 0 && waiting >= capacity;

  json::Object body;
  body["status"] = draining ? std::string("draining")
                            : (saturated ? std::string("saturated") : std::string("ready"));
  body["queue_depth"] = waiting;
  body["queue_capacity"] = capacity;
  const std::uint64_t admitted = metrics_.admitted.value();
  const std::uint64_t shed = metrics_.shed.value();
  body["shed_rate"] = admitted + shed == 0
                          ? 0.0
                          : static_cast<double>(shed) / static_cast<double>(admitted + shed);
  // The engine's own saturation. The top-level "status" above stays the
  // admission-queue aggregate; a load balancer that wants the engine's view
  // reads this block instead.
  body["engine"] = engine_summary(config_.batcher.engine, executor_);
  json::Object breakers;
  for (const auto& deployed : registry_.list()) {
    breakers[deployed->id] = breaker_summary(*deployed, /*include_retry=*/true);
  }
  body["breakers"] = std::move(breakers);
  const int status = draining || saturated ? 503 : 200;
  return {status, "application/json", json::Value(std::move(body)).dump(), {}};
}

void install_serve_api(web::HttpServer& server, ServingRuntime& runtime) {
  web::route_api(server, "POST", "deploy",
                 [&runtime](const web::HttpRequest& r) { return runtime.handle_deploy(r); });
  web::route_api(server, "POST", "predict",
                 [&runtime](const web::HttpRequest& r) { return runtime.handle_predict(r); });
  web::route_api(server, "GET", "designs",
                 [&runtime](const web::HttpRequest& r) { return runtime.handle_designs(r); });
  web::route_api(server, "GET", "metrics",
                 [&runtime](const web::HttpRequest& r) { return runtime.handle_metrics(r); });
  web::route_api(server, "GET", "readyz",
                 [&runtime](const web::HttpRequest& r) { return runtime.handle_readyz(r); });
}

}  // namespace cnn2fpga::serve
